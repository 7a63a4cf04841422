(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 9) plus the ablations called out in
   DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe table9     -- one experiment
     (ids: table9 table10 table11 table12 table13 fig2 fig3 ex11
           ablation coverage_batch cyclic incremental
           sensitivity fuzz micro)

   Scale note: the datasets are synthetic, laptop-sized equivalents of
   the paper's (DESIGN.md, "Substitutions"); absolute numbers differ
   from the paper but the comparisons within each table are the
   experiment. *)

open Castor_relational
open Castor_logic
open Castor_datasets
open Castor_eval
open Castor_qlearn
module Obs = Castor_obs.Obs

let section title =
  Fmt.pr "@.======================================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "======================================================================@."

(* ------------------------------------------------------------------ *)
(* Tables 9-11: algorithm x schema grids                               *)
(* ------------------------------------------------------------------ *)

let table9 () =
  section
    "Table 9 -- HIV: schema (in)dependence of learners (Initial / 4NF-1 / 4NF-2)";
  (* HIV-Large analogue: only the learners the paper reports as
     scaling to it (Aleph-FOIL and Castor) *)
  let large = Hiv.generate ~config:Hiv.large_config () in
  let rows_large =
    Experiment.grid ~folds:3 large
      ~variants:(List.map fst large.Dataset.variants)
      ~algos:
        [
          Algos.aleph_foil ~clauselength:10 ();
          Algos.aleph_foil ~clauselength:15 ();
          Algos.castor ();
        ]
  in
  print_string (Report.table ~title:"HIV-Large (synthetic, scaled)" rows_large);
  let ds = Hiv.generate () in
  let rows =
    Experiment.grid ~folds:3 ds
      ~variants:(List.map fst ds.Dataset.variants)
      ~algos:
        [
          Algos.aleph_foil ~clauselength:10 ();
          Algos.aleph_foil ~clauselength:15 ();
          Algos.aleph_progol ~clauselength:10 ();
          Algos.aleph_progol ~clauselength:15 ();
          Algos.castor ();
        ]
  in
  print_string (Report.table ~title:"HIV-2K4K (synthetic, scaled)" rows)

let table10 () =
  section
    "Table 10 -- UW-CSE: schema (in)dependence of learners (Original / 4NF / Denorm-1 / Denorm-2)";
  let ds = Uwcse.generate () in
  let algos =
    [
      Algos.foil ();
      Algos.aleph_foil ~clauselength:6 ();
      Algos.aleph_progol ~clauselength:6 ();
      Algos.progolem ();
      Algos.castor ();
    ]
  in
  let rows =
    Experiment.grid ~folds:5 ds
      ~variants:(List.map fst ds.Dataset.variants)
      ~algos
  in
  print_string (Report.table ~title:"UW-CSE (synthetic)" rows)

let table11 () =
  section
    "Table 11 -- IMDb: schema (in)dependence of learners (JMDB / Stanford / Denormalized)";
  let ds = Imdb.generate () in
  let algos =
    [
      Algos.aleph_foil ~clauselength:10 ();
      Algos.aleph_progol ~clauselength:10 ();
      Algos.castor ();
    ]
  in
  let rows =
    Experiment.grid ~folds:3 ds
      ~variants:(List.map fst ds.Dataset.variants)
      ~algos
  in
  print_string (Report.table ~title:"IMDb (synthetic)" rows)

(* ------------------------------------------------------------------ *)
(* Table 12: Castor with subset INDs only                              *)
(* ------------------------------------------------------------------ *)

let table12 () =
  section
    "Table 12 -- Castor using only INDs in subset form (general decomposition/composition)";
  let run ds folds =
    let weakened = { ds with Dataset.schema = Schema.weaken_inds ds.Dataset.schema } in
    Experiment.grid ~folds ~mode:`Subset_too weakened
      ~variants:(List.map fst weakened.Dataset.variants)
      ~algos:[ Algos.castor_subset () ]
  in
  print_string (Report.table ~title:"HIV, subset INDs" (run (Hiv.generate ()) 3));
  print_string (Report.table ~title:"UW-CSE, subset INDs" (run (Uwcse.generate ()) 5));
  print_string (Report.table ~title:"IMDb, subset INDs" (run (Imdb.generate ()) 3))

(* ------------------------------------------------------------------ *)
(* Table 13: stored-procedure (plan reuse) impact                      *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let _ = f () in
  Unix.gettimeofday () -. t0

let table13 () =
  section "Table 13 -- impact of per-schema plan reuse (stored procedures) on Castor runtime";
  let measure ds vname =
    let prep = Experiment.prepare ds vname in
    (* warmup: keep allocator/major-heap state out of the comparison *)
    let _ = Experiment.train_full prep (Algos.castor ()) in
    let with_plan =
      timed (fun () ->
          Experiment.train_full prep
            (Algos.castor ~params:{ Castor_core.Castor.default_params with reuse_plan = true } ()))
    in
    let without_plan =
      timed (fun () ->
          Experiment.train_full prep
            (Algos.castor ~params:{ Castor_core.Castor.default_params with reuse_plan = false } ()))
    in
    (ds.Dataset.name, with_plan, without_plan)
  in
  let rows =
    [
      measure (Hiv.generate ()) "initial";
      measure (Imdb.generate ()) "jmdb";
      measure (Uwcse.generate ()) "original";
    ]
  in
  Fmt.pr "%-10s %20s %20s %10s@." "Dataset" "with plan reuse (s)"
    "without reuse (s)" "speedup";
  List.iter
    (fun (name, w, wo) ->
      Fmt.pr "%-10s %20.3f %20.3f %9.2fx@." name w wo (wo /. w))
    rows

(* ------------------------------------------------------------------ *)
(* Figure 2: parallel coverage testing                                 *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Figure 2 -- Castor runtime vs coverage-test parallelism (domains)";
  Fmt.pr
    "hardware threads reported by the runtime: %d@.(on a single-core host the pool falls back to sequential runs, so the series is flat)@."
    (Castor_ilp.Parallel.recommended_domains ());
  let sweep ds vname =
    let prep = Experiment.prepare ds vname in
    (* warmup run: the first training run pays one-off allocator and
       major-heap costs that would be misread as a parallelism effect *)
    let _ = Experiment.train_full prep (Algos.castor ()) in
    List.map
      (fun domains ->
        let t =
          timed (fun () ->
              Experiment.train_full prep
                (Algos.castor
                   ~params:{ Castor_core.Castor.default_params with domains } ()))
        in
        (string_of_int domains, [ (ds.Dataset.name ^ " time (s)", t) ]))
      [ 1; 2; 4; 8 ]
  in
  print_string
    (Report.series ~title:"HIV-Large (initial schema)" ~xlabel:"threads"
       (sweep (Hiv.generate ~config:Hiv.large_config ()) "initial"));
  print_string
    (Report.series ~title:"IMDb (JMDB schema)" ~xlabel:"threads"
       (sweep (Imdb.generate ()) "jmdb"))

(* ------------------------------------------------------------------ *)
(* Figure 3: A2 query complexity                                       *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section
    "Figure 3 -- A2 average #EQ / #MQ per schema, random definitions over UW-CSE schemas";
  let ds = Uwcse.generate () in
  let base = ds.Dataset.schema in
  let denorm2 = Transform.apply_schema base Uwcse.to_denorm2 in
  let inv = Transform.inverse base Uwcse.to_denorm2 in
  let targets =
    [
      ("original", inv);
      ("4nf", inv @ Uwcse.to_4nf);
      ("denorm1", inv @ Uwcse.to_denorm1);
      ("denorm2", []);
    ]
  in
  let n = 50 in
  let per_vars measure =
    List.map
      (fun n_vars ->
        let vals =
          List.map
            (fun (name, ops) ->
              let total = ref 0 in
              for i = 1 to n do
                let def =
                  Gen.random_definition
                    ~rng:(Random.State.make [| (i * 31) + n_vars |])
                    ~schema:denorm2 ~target_name:"t"
                    ~n_clauses:(1 + (i mod 5))
                    ~n_vars ()
                in
                let def = Rewrite.definition denorm2 ops def in
                let oracle = Oracle.make def in
                let r = A2.learn ~target_name:"t" oracle in
                total := !total + measure r
              done;
              (name, float_of_int !total /. float_of_int n))
            targets
        in
        (string_of_int n_vars, vals))
      [ 4; 5; 6; 7; 8 ]
  in
  print_string
    (Report.series ~title:"Average equivalence queries (EQ)" ~xlabel:"variables"
       (per_vars (fun r -> r.A2.eqs)));
  print_string
    (Report.series ~title:"Average membership queries (MQ)" ~xlabel:"variables"
       (per_vars (fun r -> r.A2.mqs)));
  (* Theorem 8.1's asymptotic bounds for these schemas, for reference *)
  Fmt.pr "@.Theorem 8.1 bound expressions (m=3 clauses, k=6 variables, n=12 constants):@.";
  List.iter
    (fun (name, ops) ->
      let schema = Transform.apply_schema denorm2 ops in
      Fmt.pr "  %s@." (Bounds.report ~m:3 ~k:6 ~n:12 name schema))
    targets

(* ------------------------------------------------------------------ *)
(* Example 1.1: FOIL vs Castor across Original / 4NF                   *)
(* ------------------------------------------------------------------ *)

let ex11 () =
  section
    "Example 1.1 / Theorem 5.1 -- FOIL learns non-equivalent definitions across schemas; Castor does not";
  let ds = Uwcse.generate () in
  List.iter
    (fun algo ->
      Fmt.pr "@.--- %s ---@." algo.Experiment.algo_name;
      let sigs =
        List.map
          (fun vname ->
            let prep = Experiment.prepare ds vname in
            let def = Experiment.train_full prep algo in
            Fmt.pr "@.[%s]@.%a@." vname Clause.pp_definition def;
            Experiment.signature prep def)
          [ "original"; "4nf" ]
      in
      match sigs with
      | [ a; b ] ->
          Fmt.pr "@.=> %s delivers data-equivalent output over Original and 4NF: %b@."
            algo.Experiment.algo_name (a = b)
      | _ -> ())
    [ Algos.foil (); Algos.castor () ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation -- bottom-clause minimization and coverage-test memoization";
  (* minimization: size reduction of Castor bottom clauses (Sec 7.5.5) *)
  let ds = Uwcse.generate () in
  let prep = Experiment.prepare ds "original" in
  let n_pos = Castor_ilp.Coverage.length prep.Experiment.all_pos in
  let problem =
    Experiment.problem_of_fold prep
      (Array.init n_pos Fun.id, [||])
      (Array.init (Castor_ilp.Coverage.length prep.Experiment.all_neg) Fun.id, [||])
      ~seed:17
  in
  let plan =
    Castor_core.Plan.build ~mode:`Equality_only
      (Instance.schema problem.Castor_learners.Problem.instance)
  in
  let prm = Castor_core.Castor.default_params in
  let total_before = ref 0 and total_after = ref 0 in
  for i = 0 to min 19 (n_pos - 1) do
    let e = problem.Castor_learners.Problem.pos_cov.Castor_ilp.Coverage.examples.(i) in
    let bc =
      Castor_ilp.Bottom.bottom_clause
        ~expand:(fun r tu ->
          Castor_core.Plan.expand plan problem.Castor_learners.Problem.instance r tu)
        ~params:
          (Castor_core.Castor.bottom_params
             ~base:problem.Castor_learners.Problem.bottom_params prm)
        problem.Castor_learners.Problem.instance e
    in
    let before, after = Minimize.reduction_ratio ~exact_below:80 bc in
    total_before := !total_before + before;
    total_after := !total_after + after
  done;
  Fmt.pr
    "bottom-clause minimization over 20 UW-CSE saturations: %d -> %d literals (%.1f%% reduction)@."
    !total_before !total_after
    (100. *. (1. -. (float_of_int !total_after /. float_of_int !total_before)));
  (* minimization on/off: learning runtime *)
  let t_min =
    timed (fun () ->
        Experiment.train_full prep
          (Algos.castor ~params:{ prm with minimize_bottom = true } ()))
  and t_nomin =
    timed (fun () ->
        Experiment.train_full prep
          (Algos.castor ~params:{ prm with minimize_bottom = false } ()))
  in
  Fmt.pr "UW-CSE learning time: minimize=on %.3fs, minimize=off %.3fs@." t_min t_nomin;
  (* coverage-test memoization on/off *)
  let time_cache enabled =
    let prep = Experiment.prepare ds "original" in
    Castor_ilp.Coverage.set_cache prep.Experiment.all_pos enabled;
    Castor_ilp.Coverage.set_cache prep.Experiment.all_neg enabled;
    timed (fun () -> Experiment.train_full prep (Algos.castor ()))
  in
  Fmt.pr "UW-CSE learning time: coverage cache on %.3fs, off %.3fs@."
    (time_cache true) (time_cache false);
  (* operation counts of one full Castor run (Sec 7.5: coverage tests
     dominate learning time) *)
  Castor_ilp.Stats.reset ();
  let _ = Experiment.train_full prep (Algos.castor ()) in
  Fmt.pr "@.operation counts for one UW-CSE Castor run:@.  %a@."
    Castor_ilp.Stats.pp
    (Castor_ilp.Stats.snapshot ())

(* ------------------------------------------------------------------ *)
(* Batched semi-join coverage kernel                                   *)
(* ------------------------------------------------------------------ *)

(* Candidate clauses the way the generalization search meets them: the
   body prefixes of the first [n] examples' variabilized saturations,
   one per length in [lengths]. *)
let prefixes cov ~n ~lengths =
  List.concat_map
    (fun i ->
      let bc, _ = Clause.variabilize cov.Castor_ilp.Coverage.bottoms.(i) in
      List.map
        (fun k ->
          Clause.make bc.Clause.head
            (List.filteri (fun j _ -> j < k) bc.Clause.body))
        lengths)
    (List.init (min n (Castor_ilp.Coverage.length cov)) Fun.id)

(* The two measured passes of [coverage_batch], as spans: CI gates the
   batched pass to stay faster than the subsumption pass in the same
   dump, a ratio that holds across machines. *)
let span_cb_batched = Obs.Span.create "bench.coverage_batch.batched"

let span_cb_subsumption = Obs.Span.create "bench.coverage_batch.subsumption"

let coverage_batch () =
  section
    "Coverage batch -- batched semi-join kernel vs per-example subsumption";
  let ds = Uwcse.generate () in
  let prep = Experiment.prepare ds "original" in
  let pos = prep.Experiment.all_pos and neg = prep.Experiment.all_neg in
  (* the cache would turn the second measurement into pure hits *)
  Castor_ilp.Coverage.set_cache pos false;
  Castor_ilp.Coverage.set_cache neg false;
  let clauses = prefixes pos ~n:12 ~lengths:[ 1; 2; 3; 4; 6 ] in
  let run_all () =
    List.map
      (fun c ->
        ( Castor_ilp.Coverage.vector pos c,
          Castor_ilp.Coverage.vector neg c ))
      clauses
  in
  let with_batch b =
    Castor_ilp.Coverage.set_batch pos b;
    Castor_ilp.Coverage.set_batch neg b;
    let t0 = Unix.gettimeofday () in
    let vs = run_all () in
    (vs, Unix.gettimeofday () -. t0)
  in
  let _ = with_batch true (* warmup *) in
  let off, t_off = Obs.Span.with_span span_cb_subsumption (fun () -> with_batch false) in
  (* batched pass last, so the emitted metrics describe the kernel *)
  let on_, t_on = Obs.Span.with_span span_cb_batched (fun () -> with_batch true) in
  if not (List.for_all2 (fun (a, b) (c, d) -> a = c && b = d) on_ off) then
    failwith "coverage_batch: batched kernel disagrees with Subsume";
  let n = 2 * List.length clauses in
  Fmt.pr "%d coverage vectors over %d candidate clauses (UW-CSE original):@." n
    (List.length clauses);
  Fmt.pr "  batched semi-join kernel  %8.3f s  (%7.1f vectors/s)@." t_on
    (float_of_int n /. t_on);
  Fmt.pr "  per-example Subsume       %8.3f s  (%7.1f vectors/s)@." t_off
    (float_of_int n /. t_off);
  Fmt.pr "  speedup %.2fx; kernel batches %d@." (t_off /. t_on)
    (Obs.Counter.value Algebra.c_batches);
  Fmt.pr
    "planner decisions %d: semi-join %d, subsumption %d (est cost %d, actual %d)@."
    (Obs.Counter.value Castor_ilp.Planner.c_decisions)
    (Obs.Counter.value Castor_ilp.Planner.c_choice_semijoin)
    (Obs.Counter.value Castor_ilp.Planner.c_choice_subsumption)
    (Obs.Counter.value Castor_ilp.Planner.c_est_cost)
    (Obs.Counter.value Castor_ilp.Planner.c_actual_cost)

(* ------------------------------------------------------------------ *)
(* Cyclic cores: decomposed kernel vs per-example subsumption          *)
(* ------------------------------------------------------------------ *)

let cyclic () =
  section
    "Cyclic -- hypertree-decomposed kernel vs per-example subsumption on \
     cyclic candidate bodies";
  let ds = Uwcse.generate () in
  let prep = Experiment.prepare ds "original" in
  let pos = prep.Experiment.all_pos in
  Castor_ilp.Coverage.set_cache pos false;
  (* cyclic candidates: close a cycle over body prefixes of the
     variabilized saturations -- exactly the shapes that used to force
     the per-example subsumption fallback *)
  let bodies = prefixes pos ~n:8 ~lengths:[ 2; 3; 4 ] in
  let clauses = List.filter_map Castor_ilp.Planner.close_cycle bodies in
  if clauses = [] then failwith "cyclic: no prefix closed into a cycle";
  Fmt.pr "%d cyclic candidates closed from %d prefixes (UW-CSE original)@."
    (List.length clauses) (List.length bodies);
  (* reference: per-example subsumption; its work is search steps plus
     the arc-consistency candidate scans (AC refutes most cyclic
     probes before the step counter moves, so steps alone would credit
     those exits as free) *)
  Castor_ilp.Coverage.set_batch pos false;
  let subsume_work () =
    Obs.Counter.value Subsume.c_steps + Obs.Counter.value Subsume.c_ac_scans
  in
  let steps0 = subsume_work () in
  let t0 = Unix.gettimeofday () in
  let reference =
    List.map
      (fun c -> Array.to_list (Castor_ilp.Coverage.vector pos c))
      clauses
  in
  let t_subs = Unix.gettimeofday () -. t0 in
  let subs_steps = subsume_work () - steps0 in
  Obs.Counter.add (Obs.Counter.create "bench.cyclic.subsume_steps") subs_steps;
  Fmt.pr "  per-example Subsume  %8.3f s  %9d steps+scans@." t_subs subs_steps;
  (* the planner path must agree whatever strategy the cost model picks
     per clause; this also exercises the width counters for the dump *)
  Castor_ilp.Coverage.set_batch pos true;
  let planner_vs =
    List.map
      (fun c -> Array.to_list (Castor_ilp.Coverage.vector pos c))
      clauses
  in
  if planner_vs <> reference then
    failwith "cyclic: planner path diverges from subsumption";
  (* direct kernel invocation: the decomposed kernel itself (not the
     planner's choice) must answer every cyclic body bit-for-bit like
     subsumption, with its work measured as scanned rows plus leapfrog
     seeks. The CI gate requires that work to undercut subsumption's. *)
  let patterns_of c =
    List.map Castor_ilp.Planner.pattern_of_atom
      (c.Clause.head :: c.Clause.body)
  in
  let eids = Array.init (Castor_ilp.Coverage.length pos) Fun.id in
  let store = Option.get (Castor_ilp.Coverage.store pos) in
  let work () =
    Obs.Counter.value Algebra.c_rows_scanned
    + Obs.Counter.value Algebra.c_leapfrog_seeks
  in
  let work0 = work () in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i c ->
      let direct =
        Algebra.semijoin_batch store ~patterns:(patterns_of c) ~eids
      in
      if Array.to_list direct <> List.nth reference i then
        failwith "cyclic: kernel diverges from subsumption")
    clauses;
  let t = Unix.gettimeofday () -. t0 in
  let w = work () - work0 in
  Obs.Counter.add (Obs.Counter.create "bench.cyclic.kernel_rows") w;
  Fmt.pr
    "  direct kernel        %8.3f s  %9d rows+seeks  (matches subsumption \
     bit-for-bit)@."
    t w

(* ------------------------------------------------------------------ *)
(* Incremental: online coverage under a tuple stream                   *)
(* ------------------------------------------------------------------ *)

let incremental () =
  section
    "Incremental -- delta-driven online coverage vs from-scratch rebuild \
     (UW-CSE tuple-stream replay)";
  let ds = Uwcse.generate () in
  let prep = Experiment.prepare ds "original" in
  let v = prep.Experiment.pvariant in
  let inst = v.Dataset.vinstance in
  let pos = prep.Experiment.all_pos in
  let clauses = prefixes pos ~n:8 ~lengths:[ 1; 2; 4 ] in
  let run_all cov =
    List.map (fun c -> Castor_ilp.Coverage.vector cov c) clauses
  in
  let _ = run_all pos (* warm the memo: the replay exercises patching *) in
  (* the tuple stream: interleaved single-tuple adds/removes over the
     non-target relations, replayed one generation at a time with
     coverage queries in between — the online-learning shape *)
  let stream =
    Castor_ilp.Examples.mutation_stream ~seed:17 ~length:32 inst
      ds.Dataset.examples
  in
  let gen0 = Backend.generation inst in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i d ->
      Backend.apply inst [ d ];
      if i mod 4 = 3 then ignore (run_all pos))
    stream;
  let final = run_all pos in
  let t_inc = Unix.gettimeofday () -. t0 in
  let effective = Backend.generation inst - gen0 in
  (* the correctness pin and the cost the delta path avoids: rebuild
     the whole structure on the mutated instance, then compare *)
  let t1 = Unix.gettimeofday () in
  let plan = Castor_core.Plan.build ~mode:`Equality_only v.Dataset.vschema in
  let fresh =
    Castor_ilp.Coverage.build
      ~expand:(fun rel tu -> Castor_core.Plan.expand plan inst rel tu)
      ~params:prep.Experiment.bottom_params inst
      ds.Dataset.examples.Castor_ilp.Examples.pos
  in
  let t_rebuild = Unix.gettimeofday () -. t1 in
  if final <> run_all fresh then
    failwith "incremental: patched coverage diverges from rebuild";
  Obs.Counter.add (Obs.Counter.create "bench.incremental.deltas") effective;
  Fmt.pr
    "  %3d deltas absorbed: replay %8.3f s, one rebuild %8.3f s  (matches \
     rebuild bit-for-bit)@."
    effective t_inc t_rebuild;
  Fmt.pr
    "full refreshes %d (the online-update promise is zero), deltas applied \
     %d, examples re-saturated %d (%d unchanged), saturations still \
     truncated %d, cached vectors patched %d@."
    (Obs.Counter.value Castor_ilp.Coverage.c_full_refreshes)
    (Obs.Counter.value Castor_ilp.Coverage.c_delta_applied)
    (Obs.Counter.value Castor_ilp.Coverage.c_delta_rounds)
    (Obs.Counter.value Castor_ilp.Coverage.c_unchanged)
    (Obs.Counter.value Castor_ilp.Bottom.c_truncated)
    (Obs.Counter.value Castor_ilp.Coverage.c_cache_patches)

(* ------------------------------------------------------------------ *)
(* Parameter sensitivity (Sec 9.1.2 discusses these knobs)             *)
(* ------------------------------------------------------------------ *)

let sensitivity () =
  section
    "Sensitivity -- Castor accuracy/time vs its parameters (UW-CSE, training metrics)";
  let ds = Uwcse.generate () in
  let prep = Experiment.prepare ds "original" in
  let n_pos = Castor_ilp.Coverage.length prep.Experiment.all_pos in
  let n_neg = Castor_ilp.Coverage.length prep.Experiment.all_neg in
  let run params =
    let t0 = Unix.gettimeofday () in
    let def = Experiment.train_full prep (Algos.castor ~params ()) in
    let dt = Unix.gettimeofday () -. t0 in
    let m =
      Experiment.test_metrics prep def
        (Array.init n_pos Fun.id, Array.init n_neg Fun.id)
    in
    [
      ("precision", m.Metrics.precision);
      ("recall", m.Metrics.recall);
      ("time (s)", dt);
    ]
  in
  let base = Castor_core.Castor.default_params in
  print_string
    (Report.series ~title:"beam width (N)" ~xlabel:"beam"
       (List.map
          (fun beam -> (string_of_int beam, run { base with beam }))
          [ 1; 2; 4 ]));
  print_string
    (Report.series ~title:"sample size (K)" ~xlabel:"sample"
       (List.map
          (fun sample -> (string_of_int sample, run { base with sample }))
          [ 2; 5; 10; 20 ]));
  print_string
    (Report.series ~title:"variable budget (max_terms)" ~xlabel:"max_terms"
       (List.map
          (fun max_terms -> (string_of_int max_terms, run { base with max_terms }))
          [ 20; 40; 60; 90 ]));
  print_string
    (Report.series ~title:"IND chase join limit" ~xlabel:"join_limit"
       (List.map
          (fun join_limit -> (string_of_int join_limit, run { base with join_limit }))
          [ 2; 5; 10 ]))

(* ------------------------------------------------------------------ *)
(* Schema-variant fuzzing: the independence claim on generated worlds  *)
(* ------------------------------------------------------------------ *)

let fuzz () =
  section
    "Fuzz -- zero-config schema-variant fuzzing: induced bias, generated \
     variants, independence sweep";
  let open Castor_fuzz in
  let run ds config =
    let t0 = Unix.gettimeofday () in
    let report = Fuzz.run ~config ds in
    let dt = Unix.gettimeofday () -. t0 in
    Fmt.pr "@.%s: %d generated variants, %d runs, %.1f s@."
      report.Fuzz.rp_dataset
      (List.length report.Fuzz.rp_variants)
      (List.length report.Fuzz.rp_runs)
      dt;
    List.iter
      (fun (v : Sweep.verdict) ->
        if v.Sweep.v_equivalent then
          Fmt.pr "  %-12s schema independent@." v.Sweep.v_learner
        else
          Fmt.pr "  %-12s DIVERGES on %s@." v.Sweep.v_learner
            (String.concat ", " v.Sweep.v_diverging))
      report.Fuzz.rp_verdicts;
    List.iter
      (fun cx -> Fmt.pr "@.%a@." Shrink.pp_counterexample cx)
      report.Fuzz.rp_counterexamples
  in
  (* family: cheap, and FOIL's schema dependence shows (with the
     shrinker reducing the failure to a minimal variant + clause) *)
  run (Family.generate ())
    { Fuzz.default_config with Fuzz.learners = [ "castor" ; "foil" ]; budget = 4 };
  (* uwcse: the full zero-config pipeline at the acceptance budget *)
  run (Uwcse.generate ())
    { Fuzz.default_config with Fuzz.learners = [ "castor" ]; budget = 8 }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the substrate                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel): subsumption, lgg, join, bottom clause";
  let ds = Uwcse.generate () in
  let prep = Experiment.prepare ds "original" in
  let cov = prep.Experiment.all_pos in
  let sat0 = cov.Castor_ilp.Coverage.bottoms.(0) in
  let sat1 = cov.Castor_ilp.Coverage.bottoms.(1) in
  let bc0, _ = Clause.variabilize sat0 in
  let inst = prep.Experiment.pvariant.Dataset.vinstance in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"subsume/covering"
        (Staged.stage (fun () -> Subsume.subsumes bc0 sat0));
      Test.make ~name:"subsume/failing"
        (Staged.stage (fun () -> Subsume.subsumes bc0 sat1));
      Test.make ~name:"lgg"
        (Staged.stage (fun () -> Lgg.clauses sat0 sat1));
      Test.make ~name:"natural-join(ta,taughtBy)"
        (Staged.stage (fun () ->
             Algebra.natural_join
               (Algebra.table_of_relation inst "ta")
               (Algebra.table_of_relation inst "taughtBy")));
      Test.make ~name:"bottom-clause"
        (Staged.stage (fun () ->
             Castor_ilp.Bottom.saturation
               ~params:prep.Experiment.bottom_params inst
               cov.Castor_ilp.Coverage.examples.(0)));
      Test.make ~name:"minimize(absorbed)"
        (Staged.stage (fun () -> Minimize.reduce_absorbed bc0));
      (* coverage-memo keying: the variant key vs the pretty-print *)
      Test.make ~name:"variant-key"
        (Staged.stage (fun () -> Clause.variant_key bc0));
      Test.make ~name:"clause-to-string"
        (Staged.stage (fun () -> Clause.to_string bc0));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Fmt.pr "%-28s %12.1f ns/run@." name est
        | _ -> Fmt.pr "%-28s (no estimate)@." name)
      results
  in
  benchmark (Test.make_grouped ~name:"castor" ~fmt:"%s/%s" tests)

(* ------------------------------------------------------------------ *)

let analyze () =
  section
    "Analyze -- AST-level source lint over the project tree (state table, \
     call graph, five rule passes)";
  (* dune exec runs from the project root; when invoked from elsewhere,
     the exe sits in <root>/_build/default/bench, so climb from there *)
  let root =
    if Sys.file_exists "lib" then "."
    else
      Filename.concat (Filename.dirname Sys.executable_name) "../../.."
  in
  let rec walk dir acc =
    Array.fold_left
      (fun acc entry ->
        let p = Filename.concat dir entry in
        match Sys.is_directory p with
        | true -> walk p acc
        | false -> if Filename.check_suffix p ".ml" then p :: acc else acc
        | exception Sys_error _ -> acc)
      acc (Sys.readdir dir)
  in
  let dirs =
    List.filter
      (fun d -> Sys.file_exists (Filename.concat root d))
      [ "lib"; "bin"; "bench"; "examples" ]
  in
  let files =
    List.sort compare
      (List.concat_map (fun d -> walk (Filename.concat root d) []) dirs)
  in
  let read f =
    let ic = open_in_bin f in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let t0 = Unix.gettimeofday () in
  let groups =
    Castor_analysis.Analyze.sources (List.map (fun f -> (f, read f)) files)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let diags = List.concat_map snd groups in
  let count sev =
    Castor_analysis.Diagnostic.count sev diags
  in
  Fmt.pr "%d files in %.3f s: %d error(s), %d warning(s), %d info(s)@."
    (List.length files) dt
    (count Castor_analysis.Diagnostic.Error)
    (count Castor_analysis.Diagnostic.Warning)
    (count Castor_analysis.Diagnostic.Info)

(* ------------------------------------------------------------------ *)

let all =
  [
    ("table9", table9);
    ("table10", table10);
    ("table11", table11);
    ("table12", table12);
    ("table13", table13);
    ("fig2", fig2);
    ("fig3", fig3);
    ("ex11", ex11);
    ("ablation", ablation);
    ("coverage_batch", coverage_batch);
    ("cyclic", cyclic);
    ("incremental", incremental);
    ("sensitivity", sensitivity);
    ("fuzz", fuzz);
    ("analyze", analyze);
    ("micro", micro);
  ]

(* Every experiment runs against a zeroed Obs registry and ends with
   its metrics block: the text rendering on stdout, the JSON dump in
   BENCH_<id>.json next to the working directory, so runs can be
   diffed across commits. *)
let with_metrics id f =
  Obs.reset ();
  f ();
  Fmt.pr "@.-- Obs metrics: %s --@.%s@." id (Obs.report ());
  let path = Printf.sprintf "BENCH_%s.json" id in
  let oc = open_out path in
  Printf.fprintf oc "{\"experiment\":\"%s\",\"metrics\":%s}\n" id (Obs.to_json ());
  close_out oc;
  Fmt.pr "(metrics JSON written to %s)@." path

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map fst all
  in
  List.iter
    (fun id ->
      match List.assoc_opt id all with
      | Some f -> with_metrics id f
      | None ->
          Fmt.epr "unknown experiment %s; available: %a@." id
            Fmt.(list ~sep:sp string)
            (List.map fst all);
          exit 1)
    requested
