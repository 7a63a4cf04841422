(* Timed benchmark of the Castor learner, one workload per process.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1
              [--trace-file PATH] [--rev REV] [--smoke]

   The program under test runs as shipped: the default storage backend
   and the default Castor parameters, one domain, one client in a
   closed loop (the next operation starts when the previous returns).
   After set-up, the workload's list of operations runs in passes for S
   seconds; every operation's output is checked. With --trace 0 the
   end-to-end metrics are reported; with --trace 1 one more pass runs
   first with spans recorded around every call into a layer, the
   per-layer metrics are reported and the spans are written as Chrome
   trace-event JSON. The last line of stdout is the JSON result.
   perfbench/README.md describes the workloads and every metric. *)

open Castor_relational
open Castor_logic
open Castor_datasets
open Castor_eval
module Obs = Castor_obs.Obs
module Coverage = Castor_ilp.Coverage
module Planner = Castor_ilp.Planner
module Stats = Castor_ilp.Stats
module W = Workload

(* ------------------------------------------------------------------ *)
(* Spans around the benchmark's calls into the layers                  *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** 0 for a root span *)
    request : int;  (** one learn call, one candidate or one delta *)
    start_ns : int;
    mutable end_ns : int;
  }

  let on = ref false

  let spans = ref []

  let stack = ref []

  let next_id = ref 0

  let next_request = ref 0

  (** [span ?request name f] records [f ()] as a child of the innermost
      open span. [~request:true] opens a new request; otherwise the
      parent's request id is inherited. *)
  let span ?(request = false) name f =
    if not !on then f ()
    else begin
      incr next_id;
      let parent, req =
        match !stack with p :: _ -> (p.id, p.request) | [] -> (0, 0)
      in
      let req =
        if request then begin
          incr next_request;
          !next_request
        end
        else req
      in
      let s =
        { id = !next_id; name; parent; request = req; start_ns = W.now_ns (); end_ns = 0 }
      in
      stack := s :: !stack;
      Fun.protect f ~finally:(fun () ->
          s.end_ns <- W.now_ns ();
          stack := List.tl !stack;
          spans := s :: !spans)
    end

  (* Self time per span name, in ms: each span's duration minus that of
     its children (one thread, so children never overlap). *)
  let self_ms () =
    let children = Hashtbl.create 256 in
    let add tbl k v =
      Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    in
    List.iter
      (fun s -> if s.parent <> 0 then add children s.parent (s.end_ns - s.start_ns))
      !spans;
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let kids = Option.value ~default:0 (Hashtbl.find_opt children s.id) in
        add by_name s.name (s.end_ns - s.start_ns - kids))
      !spans;
    Hashtbl.fold (fun n ns acc -> (n, float_of_int ns *. 1e-6) :: acc) by_name []
    |> List.sort compare

  let write path =
    let oc = open_out path in
    let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int !spans in
    output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    List.iteri
      (fun i s ->
        if i > 0 then output_char oc ',';
        Printf.fprintf oc
          "\n\
           {\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%s,\"request\":%d,\"start_ns\":%d,\"end_ns\":%d}}"
          s.name
          (float_of_int (s.start_ns - t0) /. 1e3)
          (float_of_int (s.end_ns - s.start_ns) /. 1e3)
          s.id
          (if s.parent = 0 then "null" else string_of_int s.parent)
          s.request s.start_ns s.end_ns)
      (List.rev !spans);
    output_string oc "\n]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Operations, checks and set-up                                       *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0

let failed = ref 0

let check_s = ref 0.

(* Correctness checks are timed apart from the operations they check. *)
let check f =
  let r, dt = W.timed (fun () -> Trace.span "bench.check" f) in
  check_s := !check_s +. dt;
  r

type runner = {
  ops : int;
      (** distinct operations; the run repeats them in passes, and
          operation [i] is a repetition of operation [i mod ops] *)
  op : int -> float * int;
      (** run operation [i]: the seconds spent in the program's calls,
          and how many operations its check found wrong (a periodic
          check may fail several earlier operations at once) *)
  finish : unit -> int;  (** the check still owed after the last operation *)
  probe : Experiment.prepared;  (** the variant the layer probes run on *)
}

let generate_s = ref []

let prepare_s = ref []

let stage acc name f =
  let r, dt = W.timed (fun () -> Trace.span name f) in
  acc := dt :: !acc;
  r

let generate f = stage generate_s "datasets.generate" f

let prepare ds v = stage prepare_s "eval.prepare" (fun () -> Experiment.prepare ds v)

(* [set_up ~reps load] runs the program's set-up [reps] times and keeps
   the last result; [setup_s] is the median. The heap is collected
   between repetitions so one repetition's garbage does not inflate the
   next one's peak. *)
let set_up ~reps load =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    last := None;
    Gc.full_major ();
    let d, dt = W.timed load in
    times := dt :: !times;
    last := Some d
  done;
  (Option.get !last, W.median !times)

(* A copy of [inst] with the same tuple order. Coverage structures built
   from scratch for a check or a probe are built on a copy, so that
   their delta subscriptions die with it instead of accumulating on the
   instance under test. *)
let copy_instance inst =
  let copy = Instance.create (Instance.schema inst) in
  List.iter
    (fun r -> List.iter (Instance.add copy r) (List.rev (Instance.tuples inst r)))
    (Instance.relation_names inst);
  copy

let covers_vector (cov : Coverage.t) c =
  Array.map (fun b -> Subsume.subsumes ~max_steps:250_000 c b) cov.Coverage.bottoms

(* Every workload runs on one fixed dataset and repeats a fixed list of
   operations; the seed draws the list (learn-* and online-stream: its
   order). Learning
   time moves with the generated data by up to 4x between dataset
   seeds, far more than any useful regression bound, so a seed that
   regenerated the data would measure the data. *)

(* learn-*: one operation learns the target with Castor on one schema
   variant of the dataset, with one sampling seed. The pool of sampling
   seeds is the same in every run (the run seed orders it): the learning
   path, and so its cost, moves by about a sixth with the sampling seed,
   and a run affords too few learns to average that out. Every
   definition learned with a sampling seed must have the coverage
   signature of the first one learned with it, on whatever variant and
   in whatever pass (schema independence and determinism). *)
let learn ~reps ~trials ~dataset seed =
  let preps, setup_s =
    set_up ~reps (fun () ->
        let ds = generate dataset in
        Array.of_list (List.map (fun (v, _) -> prepare ds v) ds.Dataset.variants))
  in
  let nv = Array.length preps in
  let order =
    Castor_ilp.Examples.shuffle (Random.State.make [| seed |]) (Array.init trials succ)
  in
  let expected = Hashtbl.create 16 in
  let op i =
    let p = order.(i / nv mod trials) and prep = preps.(i mod nv) in
    Trace.span ~request:true "bench.learn" @@ fun () ->
    let def, dt =
      W.timed (fun () ->
          Trace.span "eval.train_full" (fun () ->
              Experiment.train_full ~seed:p prep (Algos.castor ())))
    in
    let bad =
      check (fun () ->
          let s = Trace.span "eval.signature" (fun () -> Experiment.signature prep def) in
          match Hashtbl.find_opt expected p with
          | None ->
              Hashtbl.replace expected p s;
              0
          | Some e -> if e = s then 0 else 1)
    in
    (dt, bad)
  in
  ({ ops = trials * nv; op; finish = (fun () -> 0); probe = preps.(0) }, setup_s)

(* coverage-scan: candidate clauses scored on the positive and negative
   examples with the coverage memo off, so every call reaches the
   planner, the kernel and the storage seam. The candidates are drawn
   from the body prefixes (lengths 1/2/3/4/6/8) of every variabilized
   positive saturation and their cyclic closures. Each pair of vectors
   must equal a reference computed by per-example subsumption. *)
let scan ~reps ~n_cands ~config seed =
  let prep, setup_s =
    set_up ~reps (fun () ->
        let ds = generate (fun () -> Uwcse.generate ~config ()) in
        prepare ds "original")
  in
  let pos = prep.Experiment.all_pos and neg = prep.Experiment.all_neg in
  Coverage.set_cache pos false;
  Coverage.set_cache neg false;
  let prefixes =
    W.prefixes pos.Coverage.bottoms ~n:(Coverage.length pos) ~lengths:[ 1; 2; 3; 4; 6; 8 ]
  in
  let pool = Array.of_list (prefixes @ W.closures prefixes) in
  let rng = Random.State.make [| seed |] in
  let cands = Array.init n_cands (fun _ -> Random.State.int rng (Array.length pool)) in
  let reference = Hashtbl.create 512 in
  check (fun () ->
      Array.iter
        (fun k ->
          if not (Hashtbl.mem reference k) then
            Hashtbl.replace reference k (covers_vector pos pool.(k), covers_vector neg pool.(k)))
        cands);
  let op i =
    let k = cands.(i mod n_cands) in
    Trace.span ~request:true "bench.candidate" @@ fun () ->
    let v, dt =
      W.timed (fun () ->
          let p = Trace.span "ilp.coverage.vector" (fun () -> Coverage.vector pos pool.(k)) in
          (p, Trace.span "ilp.coverage.vector" (fun () -> Coverage.vector neg pool.(k))))
    in
    (dt, check (fun () -> if v = Hashtbl.find reference k then 0 else 1))
  in
  ({ ops = n_cands; op; finish = (fun () -> 0); probe = prep }, setup_s)

(* online-stream: single-tuple deltas applied to the source instance
   while a set of clauses is watched (memo on); one operation applies
   one delta and then re-reads every watched vector. A chunk is
   [length] deltas of Examples.mutation_stream followed by the inverses
   of the effective ones in reverse order, so the instance returns to
   its initial state and a chunk can be replayed. The chunks are the
   same in every run (the run seed orders them): the cost of one update
   follows how many saturations the delta touches, which spans two
   orders of magnitude, and a run affords too few distinct deltas for
   their median to settle. After a chunk's forward half the vectors must
   equal those of coverage structures built from scratch on the mutated
   instance (built once per chunk); after its backward half, the
   initial vectors. No delta may force a full refresh. *)
let online ~reps ~n_sats ~length ~chunks ~config seed =
  let (ds, prep), setup_s =
    set_up ~reps (fun () ->
        let ds = generate (fun () -> Uwcse.generate ~config ()) in
        (ds, prepare ds "original"))
  in
  let pos = prep.Experiment.all_pos and neg = prep.Experiment.all_neg in
  let v = prep.Experiment.pvariant in
  let inst = v.Dataset.vinstance in
  let watched = W.prefixes pos.Coverage.bottoms ~n:n_sats ~lengths:[ 1; 2; 4 ] in
  let query p n =
    List.map
      (fun c ->
        ( Trace.span "ilp.coverage.vector" (fun () -> Coverage.vector p c),
          Trace.span "ilp.coverage.vector" (fun () -> Coverage.vector n c) ))
      watched
  in
  let initial = query pos neg in
  let current = ref initial in
  let streams =
    Array.init chunks (fun c ->
        Array.of_list
          (Castor_ilp.Examples.mutation_stream ~seed:c ~length inst ds.Dataset.examples))
  in
  let order = Castor_ilp.Examples.shuffle (Random.State.make [| seed |]) (Array.init chunks Fun.id) in
  let source = Backend.of_instance inst in
  let effective = ref [] in
  Backend.subscribe source (fun ds -> effective := ds);
  let plan = Castor_core.Plan.build ~mode:`Equality_only v.Dataset.vschema in
  let rebuilt () =
    let copy = copy_instance inst in
    let expand rel tu = Castor_core.Plan.expand plan copy rel tu in
    let build examples =
      Trace.span "ilp.coverage.build" (fun () ->
          Coverage.build ~expand ~params:prep.Experiment.bottom_params copy examples)
    in
    let ex = ds.Dataset.examples in
    query (build ex.Castor_ilp.Examples.pos) (build ex.Castor_ilp.Examples.neg)
  in
  let mutated = Hashtbl.create chunks in
  let full_refreshes () = Obs.Counter.value Coverage.c_full_refreshes in
  let refreshes0 = ref (full_refreshes ()) in
  let unchecked = ref 0 in
  let verify expected =
    let owed = !unchecked in
    unchecked := 0;
    if owed = 0 then 0
    else
      check (fun () ->
          let expected = expected () in
          let full = full_refreshes () - !refreshes0 in
          refreshes0 := full_refreshes ();
          if expected = !current && full = 0 then 0 else owed)
  in
  let undo = Array.make length [] in
  let op i =
    let c = order.(i / (2 * length) mod chunks) and j = i mod (2 * length) in
    let forward = j < length in
    let k = if forward then j else (2 * length) - 1 - j in
    let deltas = if forward then [ streams.(c).(k) ] else List.map Delta.inverse undo.(k) in
    Trace.span ~request:true "bench.delta" @@ fun () ->
    effective := [];
    let vs, dt =
      W.timed (fun () ->
          Trace.span "relational.backend.apply" (fun () -> Backend.apply source deltas);
          query pos neg)
    in
    if forward then undo.(k) <- !effective;
    current := vs;
    incr unchecked;
    let bad =
      if j = length - 1 then
        verify (fun () ->
            match Hashtbl.find_opt mutated c with
            | Some e -> e
            | None ->
                let e = rebuilt () in
                Hashtbl.replace mutated c e;
                e)
      else if j = (2 * length) - 1 then verify (fun () -> initial)
      else 0
    in
    (dt, bad)
  in
  ( { ops = 2 * length * chunks; op; finish = (fun () -> verify rebuilt); probe = prep },
    setup_s )

(* ------------------------------------------------------------------ *)
(* Workload table                                                      *)
(* ------------------------------------------------------------------ *)

let workloads ~smoke =
  let reps = if smoke then 1 else 9 in
  let uwcse_small =
    if smoke then { Uwcse.n_students = 12; n_profs = 4; n_courses = 6; n_terms = 3; seed = 7 }
    else { Uwcse.n_students = 40; n_profs = 12; n_courses = 18; n_terms = 5; seed = 7 }
  in
  let uwcse =
    if smoke then { Uwcse.n_students = 16; n_profs = 5; n_courses = 8; n_terms = 3; seed = 7 }
    else Uwcse.default_config
  in
  let hiv = { Hiv.default_config with n_compounds = (if smoke then 15 else 60) } in
  [
    ( "learn-uwcse",
      learn ~reps ~trials:(if smoke then 1 else 4) ~dataset:(fun () ->
          Uwcse.generate ~config:uwcse_small ()) );
    ( "learn-hiv",
      learn ~reps ~trials:(if smoke then 1 else 3) ~dataset:(fun () ->
          Hiv.generate ~config:hiv ()) );
    ("coverage-scan", scan ~reps ~n_cands:(if smoke then 8 else 1024) ~config:uwcse);
    ( "online-stream",
      online ~reps ~n_sats:(if smoke then 2 else 8) ~length:(if smoke then 3 else 32)
        ~chunks:(if smoke then 1 else 3) ~config:uwcse_small );
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer measurements                                              *)
(* ------------------------------------------------------------------ *)

let counters =
  [
    Algebra.c_rows_scanned;
    Algebra.c_leapfrog_seeks;
    Store.c_lookups;
    Subsume.c_calls;
    Subsume.c_steps;
    Subsume.c_ac_scans;
    Subsume.c_restarts;
    Planner.c_decisions;
    Planner.c_choice_semijoin;
    Planner.c_choice_subsumption;
    Planner.c_est_cost;
    Planner.c_actual_cost;
    Stats.c_cache_hits;
    Coverage.c_cache_misses;
    Coverage.c_cache_patches;
    Coverage.c_delta_applied;
    Coverage.c_delta_rounds;
    Coverage.c_full_refreshes;
    Stats.c_saturations;
    Castor_ilp.Bottom.c_budget_growths;
    Stats.c_armg_calls;
  ]

let spans =
  [
    Algebra.span_batch;
    Coverage.span_vector;
    Coverage.span_covers;
    Castor_ilp.Bottom.span_saturation;
    Castor_ilp.Armg.span_generalize;
  ]

type snapshot = {
  cs : (Obs.Counter.t * int) list;
  ss : (Obs.Span.t * float * int) list;
  gc : Gc.stat;
}

let snapshot () =
  {
    cs = List.map (fun c -> (c, Obs.Counter.value c)) counters;
    ss = List.map (fun s -> (s, Obs.Span.total_s s, Obs.Span.count s)) spans;
    gc = Gc.quick_stat ();
  }

let ratio a b = if b = 0. then 0. else a /. b

let run_op s i =
  let dt, bad = s.op i in
  incr attempted;
  failed := !failed + bad;
  dt

(* The traced pass: one pass over the operations with spans on, and the
   layer counters, span totals and GC statistics accrued over exactly
   that work, which repeats exactly for a given seed. *)
let traced_pass s =
  Trace.on := true;
  let before = snapshot () in
  let check0 = !check_s in
  let lat, wall = W.timed (fun () -> List.init s.ops (run_op s)) in
  let after = snapshot () in
  Trace.on := false;
  let dc c = float_of_int (Obs.Counter.value c - List.assq c before.cs) in
  let span_delta s =
    let _, t0, n0 = List.find (fun (s', _, _) -> s' == s) before.ss in
    (Obs.Span.total_s s -. t0, float_of_int (Obs.Span.count s - n0))
  in
  let share s = ratio (fst (span_delta s)) wall in
  let vector_s, vector_calls = span_delta Coverage.span_vector in
  let hits = dc Stats.c_cache_hits in
  let metrics =
    [
      ("relational.algebra.rows_scanned", dc Algebra.c_rows_scanned, "count");
      ("relational.algebra.leapfrog_seeks", dc Algebra.c_leapfrog_seeks, "count");
      ("relational.algebra.kernel_share", share Algebra.span_batch, "ratio");
      ("relational.store.lookups", dc Store.c_lookups, "count");
      ("logic.subsume.calls", dc Subsume.c_calls, "count");
      ("logic.subsume.steps", dc Subsume.c_steps, "count");
      ("logic.subsume.ac_scans", dc Subsume.c_ac_scans, "count");
      ("logic.subsume.restarts", dc Subsume.c_restarts, "count");
      ("ilp.planner.decisions", dc Planner.c_decisions, "count");
      ( "ilp.planner.semijoin_share",
        ratio (dc Planner.c_choice_semijoin)
          (dc Planner.c_choice_semijoin +. dc Planner.c_choice_subsumption),
        "ratio" );
      ( "ilp.planner.est_over_actual",
        ratio (dc Planner.c_est_cost) (dc Planner.c_actual_cost),
        "ratio" );
      ("ilp.coverage.vector_calls", vector_calls, "count");
      ("ilp.coverage.vector_ms_mean", 1e3 *. ratio vector_s vector_calls, "ms");
      ("ilp.coverage.covers_calls", snd (span_delta Coverage.span_covers), "count");
      ( "ilp.coverage.cache_hit_rate",
        ratio hits (hits +. dc Coverage.c_cache_misses),
        "ratio" );
      ("ilp.coverage.cache_patches", dc Coverage.c_cache_patches, "count");
      ( "ilp.coverage.resaturated_per_delta",
        ratio (dc Coverage.c_delta_rounds) (dc Coverage.c_delta_applied),
        "ratio" );
      ("ilp.coverage.full_refreshes", dc Coverage.c_full_refreshes, "count");
      ("ilp.bottom.saturations", dc Stats.c_saturations, "count");
      ("ilp.bottom.saturation_share", share Castor_ilp.Bottom.span_saturation, "ratio");
      ("ilp.bottom.budget_growths", dc Castor_ilp.Bottom.c_budget_growths, "count");
      ("ilp.armg.calls", dc Stats.c_armg_calls, "count");
      ("ilp.armg.share", share Castor_ilp.Armg.span_generalize, "ratio");
      ("bench.check_ms", 1e3 *. (!check_s -. check0), "ms");
      ( "gc.minor_mwords",
        (after.gc.Gc.minor_words -. before.gc.Gc.minor_words) /. 1e6,
        "Mwords" );
      ( "gc.major_collections",
        float_of_int (after.gc.Gc.major_collections - before.gc.Gc.major_collections),
        "count" );
    ]
  in
  (lat, metrics)

(* Traced-only probes: each layer called directly, outside any
   operation, on fixed inputs built from the probe variant. The kernel
   and subsumption probes answer the same clauses over every example
   and must agree. *)
let probes (prep : Experiment.prepared) =
  Trace.on := true;
  let pos = prep.Experiment.all_pos in
  let v = prep.Experiment.pvariant in
  let inst = v.Dataset.vinstance in
  let clauses = Array.of_list (W.prefixes pos.Coverage.bottoms ~n:8 ~lengths:[ 2; 4 ]) in
  let ms_median reps f =
    1e3 *. W.median (List.init reps (fun _ -> snd (W.timed f)))
  in
  let per_clause name f =
    1e3
    *. W.median
         (List.init 3 (fun _ ->
              snd (W.timed (fun () -> Array.map (fun c -> Trace.span name (fun () -> f c)) clauses))))
    /. float_of_int (max 1 (Array.length clauses))
  in
  let store = Option.get (Coverage.store pos) in
  let eids = Array.init (Coverage.length pos) Fun.id in
  let kernel c =
    Algebra.semijoin_batch store
      ~patterns:(List.map Planner.pattern_of_atom (c.Clause.head :: c.Clause.body))
      ~eids
  in
  let agree =
    check (fun () ->
        Array.map (fun c -> if kernel c = covers_vector pos c then 0 else 1) clauses)
  in
  attempted := !attempted + Array.length clauses;
  failed := !failed + Array.fold_left ( + ) 0 agree;
  let plan () = Castor_core.Plan.build ~mode:`Equality_only v.Dataset.vschema in
  let copy = copy_instance inst in
  let expand =
    let p = plan () in
    fun rel tu -> Castor_core.Plan.expand p copy rel tu
  in
  let ex = prep.Experiment.pdataset.Dataset.examples in
  let metrics =
    [
      ("core.plan.build_ms", ms_median 20 (fun () -> Trace.span "core.plan.build" plan), "ms");
      ( "relational.backend.load_ms",
        ms_median 5 (fun () ->
            Trace.span "relational.backend.load" (fun () ->
                Backend.load Backend.default_spec inst)),
        "ms" );
      ( "ilp.coverage.build_ms",
        ms_median 3 (fun () ->
            List.map
              (fun examples ->
                Trace.span "ilp.coverage.build" (fun () ->
                    Coverage.build ~expand ~params:prep.Experiment.bottom_params copy
                      examples))
              [ ex.Castor_ilp.Examples.pos; ex.Castor_ilp.Examples.neg ]),
        "ms" );
      ( "relational.algebra.kernel_ms_per_clause",
        per_clause "relational.algebra.semijoin_batch" kernel,
        "ms" );
      ( "logic.subsume.ms_per_clause",
        per_clause "logic.subsume.subsumes" (covers_vector pos),
        "ms" );
    ]
  in
  Trace.on := false;
  metrics

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let utc_now () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

let usage () =
  prerr_endline
    "usage: perf.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--trace-file PATH] [--rev REV] [--smoke]";
  exit 2

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10. and trace = ref 0 in
  let trace_file = ref "" and rev = ref "unknown" and smoke = ref false in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
    | "--seconds" :: v :: tl -> seconds := float_of_string v; parse tl
    | "--trace" :: v :: tl -> trace := int_of_string v; parse tl
    | "--trace-file" :: v :: tl -> trace_file := v; parse tl
    | "--rev" :: v :: tl -> rev := v; parse tl
    | "--smoke" :: tl -> smoke := true; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let start =
    match List.assoc_opt !workload (workloads ~smoke:!smoke) with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
        prerr_endline
          ("unknown workload or trace mode; workloads: "
          ^ String.concat ", " (List.map fst (workloads ~smoke:false)));
        exit 2
  in
  let traced = !trace = 1 in
  Trace.on := traced;
  let s, setup_s = start !seed in
  Trace.on := false;
  let layer =
    if not traced then None
    else
      let pass = traced_pass s in
      Some (pass, probes s.probe)
  in
  (* The timed closed loop: passes over the operations until the budget
     is spent, at least one. An operation's latency is the least of its
     repetitions: on a shared 2-core virtual machine the speed of a fixed
     kernel swings by up to 2x for seconds at a time as neighbours load
     the host, and the least repetition is the one such contention
     disturbed least. *)
  let best = Array.make s.ops infinity and first = Array.make s.ops 0. in
  let i = ref 0 in
  let t_end = W.now_ns () + int_of_float (!seconds *. 1e9) in
  while !i < s.ops || W.now_ns () < t_end do
    let k = !i mod s.ops in
    let dt = run_op s !i in
    if !i < s.ops then first.(k) <- dt;
    best.(k) <- Float.min best.(k) dt;
    incr i
  done;
  failed := !failed + s.finish ();
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let lats = Array.to_list best in
  let sum = List.fold_left ( +. ) 0. in
  let metrics =
    match layer with
    | None ->
        [
          ("setup_s", setup_s, "s");
          ("latency_ms_p50", 1e3 *. W.quantile lats 0.5, "ms");
          ("latency_ms_p90", 1e3 *. W.quantile lats 0.9, "ms");
          ("throughput_per_s", float_of_int s.ops /. sum lats, "1/s");
          ("peak_heap_mb", heap_mb, "MB");
        ]
    | Some ((traced, from_pass), from_probes) ->
        [
          ("datasets.generate_ms", 1e3 *. W.median !generate_s, "ms");
          ("eval.prepare_ms", 1e3 *. W.median !prepare_s, "ms");
        ]
        @ from_pass @ from_probes
        @ [
            (* the traced pass against the first untraced pass, which
               repeats the same operations *)
            ("bench.trace_overhead", ratio (sum traced) (sum (Array.to_list first)), "ratio");
          ]
  in
  if traced then begin
    let path =
      if !trace_file <> "" then !trace_file
      else Printf.sprintf "trace-%s-%d.json" !workload !seed
    in
    Trace.write path;
    Printf.printf "trace: %d spans written to %s\n" (List.length !Trace.spans) path;
    List.iter (fun (n, ms) -> Printf.printf "self time  %-40s %12.3f ms\n" n ms) (Trace.self_ms ())
  end;
  let failed = min !failed !attempted in
  Printf.printf
    "workload %s, seed %d: %d operations timed in %d passes, %d attempted, %d failed\n"
    !workload !seed s.ops (!i / s.ops) !attempted failed;
  List.iter (fun (n, v, u) -> Printf.printf "  %-42s %s %s\n" n (json_number v) u) metrics;
  Printf.printf
    "stamp {\"workload\":\"%s\",\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"nproc\":%d,\"ocaml\":\"%s\",\"rev\":\"%s\",\"utc\":\"%s\"}\n"
    !workload !seed (json_number !seconds) !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !rev (utc_now ());
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (failed = 0) !attempted failed
    (String.concat ","
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" n (json_number v) u)
          metrics));
  exit (if failed = 0 then 0 else 1)
