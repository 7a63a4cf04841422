(** Coverage testing (Section 7.5.3-7.5.4).

    A candidate clause [C] covers example [e] iff [C] θ-subsumes the
    ground bottom clause [⊥e]. The ground bottom clauses of all
    training examples are precomputed once per (dataset, schema) and
    reused by every learner, exactly like the paper's per-example
    saturations.

    Coverage runs inside one engine, the interned
    {!Castor_relational.Columnar} store: [build] loads a columnar
    snapshot of the source instance that saturation reads through the
    {!Castor_relational.Backend} seam, and the example-saturation
    database the batch kernel runs on is a columnar store keyed by
    example id. A {!vector} query picks its strategy per candidate
    clause — cached vector, batched semi-join or per-example
    subsumption — through the cost-based {!Planner}. A {!covers} query
    asks about one example and is always one subsumption test (see
    below).

    Two optimizations from the paper are implemented here for
    {!vector}: a memoization table keyed by {!Clause.variant_key} — a
    one-pass rendering under first-occurrence variable names, so a
    clause that comes back under other variable names shares one entry
    — and the generality shortcut: when testing a clause known to be
    more general than a previously tested one, the examples already
    covered need not be re-tested. Coverage tests can also be fanned
    out over domains ({!Parallel}).

    {2 One example: [covers]}

    Nearly every {!covers} call is an ARMG prefix probe ({!Armg}). It
    is one exact subsumption test of the compiled clause against the
    example's prepared bottom clause, with no variant key, memo lookup
    or planner decision. A prefix is seldom scored as a full vector
    first, so the memo almost never answered such a probe, yet every
    call paid for the key and the decision. Nor is the kernel a better
    route for one example: {!Castor_relational.Algebra.semijoin_batch}
    scans and semi-joins every example's rows, whichever examples it is
    asked about. DESIGN.md gives the measurements.

    {2 Prepared bottom clauses}

    The subsumption route tests the same ground bottom clause against
    thousands of candidates, so each example's bottom clause is
    interned into ids and grouped by relation and arity once
    ({!Subsume.prepare}), on its first subsumption test — never in
    [build], which does no such set-up work. The candidate clause is
    compiled once per call ({!Subsume.compile}) and tested against the
    target of every position the call decides by subsumption. An entry
    is reset wherever its bottom clause changes: by an incremental
    refresh, per example whose re-saturation changed it; by a full
    refresh, for every example; and [sub] starts with none. Only the
    calling domain fills entries: before fanning out,
    {!compute_positions} resolves the targets of its positions, and
    the worker closures capture that immutable array and the compiled
    clause.

    {2 Exact past the step budget}

    Every answer is exact, whatever [max_steps]. A subsumption search
    starts with that budget; one that runs out is counted under
    [ilp.coverage.budget_fallbacks] and finished without a budget, on
    the domain it ran on. The budget only decides which tests are
    counted, so no performance knob can change what is learned — the
    kernel is exact as well, which keeps the planner's choice
    result-neutral (paper Lemmas 7.5-7.8 assume an exact test).

    {2 Online updates}

    The structure subscribes to the source backend's delta stream
    ({!Backend.subscribe}). When the source mutates, the next coverage
    query drains the pending deltas and {e patches} itself instead of
    rebuilding: the private saturation substrate absorbs the batch
    ([Backend.apply]), and only the examples whose {e probe set} holds
    a value of a delta tuple are re-saturated. The probe set of an
    example is what its saturation read the data on — every constant
    it looked up and every value the IND chase bound a probe on
    ({!Bottom.saturation_with_probes}) — so a delta holding none of
    them cannot change its bottom clause. A re-saturation that returns
    the same clause changes nothing and is counted under
    [ilp.saturation.unchanged]; a changed one has its facts
    add/removed in place inside the eid-keyed example store, and
    memoized vectors are lazily re-tested at exactly those example
    positions. A full rebuild survives only as a fallback — when a
    delta touches the target relation (retracting or creating
    label support) or when the delta log cannot account for the whole
    generation gap — counted separately under
    [ilp.coverage.full_refreshes]. *)

open Castor_relational
open Castor_logic
module Obs = Castor_obs.Obs

(* One memoized coverage vector. [egen] is the source generation the
   bits are valid at; an entry left behind by an incremental refresh
   is patched lazily (only the positions whose bottom clause the
   refresh changed are re-tested) instead of being thrown away. *)
type entry = { mutable egen : int; ev : bool array }

type t = {
  examples : Atom.t array;
  mutable bottoms : Clause.t array;
      (** ground bottom clause per example; patched (changed examples
          only) or rebuilt by {!refresh} when the source mutates *)
  mutable probes : Value.t array array;
      (** per example, the probe set of its saturation: the distinct
          values its data reads were keyed on
          ({!Bottom.saturation_with_probes}); {!affected_positions}
          tests delta tuples against these *)
  mutable prepared : Subsume.prepared option array;
      (** per example, its bottom clause as the subsumption route's
          int-coded target ({!Subsume.prepare}); filled on the
          example's first subsumption test, on the calling domain only,
          and reset wherever [bottoms] changes *)
  mutable avg_bottom_len : float;
      (** mean atom count (head included) of [bottoms], the planner's
          subsumption-cost input; recomputed whenever [bottoms]
          changes, not on every decision *)
  max_steps : int;
      (** step budget of a subsumption test; a test past it is finished
          without one and counted under [ilp.coverage.budget_fallbacks] *)
  cache : (string, entry) Hashtbl.t;
  mutable cache_enabled : bool;
  mutable domains : int;
  mutable force_parallel : bool;
      (** fan out even when the runtime reports one hardware thread —
          used by tests that must exercise real worker domains *)
  inst : Instance.t;  (** the source database the examples live in *)
  source : Backend.t;
      (** zero-copy backend over [inst]; its delta stream drives the
          incremental refresh and its generation marks staleness *)
  mutable data : Backend.t;
      (** the saturation substrate, a columnar snapshot of [inst];
          kept alive across refreshes so deltas can be absorbed
          instead of reloading the whole instance *)
  expand : (string -> Tuple.t -> (string * Tuple.t) list) option;
  params : Bottom.params;
  mutable ex_store : Columnar.t option;
      (** columnar store holding the ground saturations, keyed by
          example id (column 0 of every relation) — the operand of the
          batched semi-join kernel; [None] when the kernel cannot
          apply (e.g. the target relation shadows a schema relation) *)
  mutable eids : int array;
      (** example id in [ex_store] of each local example; restriction
          via {!sub} remaps indexes but shares the store *)
  mutable batch_enabled : bool;
  mutable src_gen : int;
      (** [source]'s generation when [bottoms]/[ex_store] were last
          brought up to date *)
  pending : Delta.t list ref;
      (** deltas the subscription delivered since [src_gen], newest
          first; drained by {!refresh} *)
  mutable dirty_log : (int * int array) list;
      (** incremental-refresh history, newest first: [(gen, changed)]
          records that reaching generation [gen] changed the bottom
          clauses at exactly the local positions [changed] — what lazy
          cache patching replays *)
  mutable log_floor : int;
      (** generation below which the retained [dirty_log] no longer
          covers history; entries with [egen < log_floor] cannot be
          patched and are recomputed in full *)
  decomps : (string, Hypergraph.decomposition) Hashtbl.t;
      (** hypertree decompositions memoized by the pattern
          hypergraph's {!Hypergraph.signature} — order-sensitive and
          free of variable names, and a decomposition is a function of
          it, so every clause with the same join shape shares one
          entry. An entry's [bag_vars] carry the variable names of the
          clause that first built it; the planner and the kernel read
          only [bags], [forest] and [width], which are positional.
          Decompositions depend only on clause structure, never on
          data, so entries are never invalidated; [sub] shares the
          table. Main-thread only, like [cache]. *)
}

(* A saturation fact as stored in the example store: column 0 carries
   the example id. *)
let eid_row eid (a : Atom.t) = Array.append [| eid |] (Atom.to_tuple a)

(* Load every ground saturation into an example-keyed columnar store:
   relation R of arity a is stored with arity a + 1. The target
   relation holds the head atoms. *)
let example_store inst (examples : Atom.t array)
    (bottoms : Clause.t array) =
  if Array.length examples = 0 then None
  else begin
    let schema = Instance.schema inst in
    let rels =
      List.map
        (fun (r : Schema.relation) ->
          (r.Schema.rname, List.length r.Schema.attrs + 1))
        schema.Schema.relations
    in
    let trel = examples.(0).Atom.rel in
    let tarity = Atom.arity examples.(0) in
    let uniform =
      Array.for_all
        (fun (e : Atom.t) ->
          String.equal e.Atom.rel trel && Atom.arity e = tarity)
        examples
    in
    if (not uniform) || List.mem_assoc trel rels then None
    else begin
      let store = Columnar.create (rels @ [ (trel, tarity + 1) ]) in
      Array.iteri
        (fun i (c : Clause.t) ->
          let eid = Value.int i in
          let put (a : Atom.t) =
            if Atom.is_ground a then
              ignore (Columnar.add store a.Atom.rel (eid_row eid a))
          in
          put c.Clause.head;
          List.iter put c.Clause.body)
        bottoms;
      Some store
    end
  end

(* Bottom clauses and probe sets of every example. *)
let saturate_all ?expand ~params ~backend inst examples =
  let sats =
    Array.map
      (fun e -> Bottom.saturation_with_probes ?expand ~backend ~params inst e)
      examples
  in
  (Array.map fst sats, Array.map snd sats)

let mean_bottom_len (bottoms : Clause.t array) =
  let n = Array.length bottoms in
  if n = 0 then 0.
  else
    float_of_int
      (Array.fold_left
         (fun acc (c : Clause.t) -> acc + 1 + List.length c.Clause.body)
         0 bottoms)
    /. float_of_int n

(** The subsumption step budget coverage tests start with. It changes
    no answer (see "Exact past the step budget" above). *)
let default_max_steps = 250_000

(** [build ?expand ~params ?max_steps inst examples] precomputes the
    saturations of [examples] over a columnar snapshot of [inst] and
    loads them into the example store the batched coverage kernel runs
    against. The structure subscribes to [inst]'s delta stream, so
    later mutations are absorbed incrementally; that stays exact only
    if [expand] reports every value its data probes bind through
    {!Bottom.note_probe}, as {!Castor_core.Plan.expand} does.
    [max_steps] (default {!default_max_steps}) only picks which
    subsumption tests are finished as budget fallbacks. *)
let build ?expand ~params ?(max_steps = default_max_steps) inst
    (examples : Atom.t array) =
  let source = Backend.of_instance inst in
  let data = Backend.load Backend.default_spec inst in
  let bottoms, probes =
    saturate_all ?expand ~params ~backend:data inst examples
  in
  let pending = ref [] in
  Backend.subscribe source (fun ds -> pending := List.rev_append ds !pending);
  let src_gen = Backend.generation source in
  {
    examples;
    bottoms;
    probes;
    prepared = Array.make (Array.length bottoms) None;
    avg_bottom_len = mean_bottom_len bottoms;
    max_steps;
    cache = Hashtbl.create 256;
    cache_enabled = true;
    domains = 1;
    force_parallel = false;
    inst;
    source;
    data;
    expand;
    params;
    ex_store = example_store inst examples bottoms;
    eids = Array.init (Array.length examples) Fun.id;
    batch_enabled = true;
    src_gen;
    pending;
    dirty_log = [];
    log_floor = src_gen;
    decomps = Hashtbl.create 64;
  }

let length t = Array.length t.examples

(** Wall-clock spent in batch [vector] calls and in single [covers]
    tests — the benches report where learning time goes from these. *)
let span_vector = Obs.Span.create "ilp.coverage.vector"

let span_covers = Obs.Span.create "ilp.coverage.covers"

(** Slowest [vector] calls, with the clause as label; for performance
    diagnosis in the benches. *)
let slow_vectors = Obs.Reservoir.create ~capacity:40 "ilp.coverage.slow_vectors"

(* The memo, made visible: [key_builds] is how often a clause's
   {!Clause.variant_key} is computed (once per [vector] call); hits
   land in {!Stats.c_cache_hits}, misses here, so hit rate is
   derivable from any metrics dump. *)
let c_key_builds = Obs.Counter.create "ilp.coverage.key_builds"

let c_cache_misses = Obs.Counter.create "ilp.coverage.cache_misses"

(** How often a stale source was detected and brought up to date (by
    either path — see [full_refreshes] for the expensive one). *)
let c_refreshes = Obs.Counter.create "ilp.coverage.refreshes"

(** Fallback rebuilds: bottoms, example store and memo table all
    recomputed from scratch because a delta touched the target
    relation or the delta log could not account for the generation
    gap. The online-update promise is this counter staying at zero on
    non-target mutation streams. *)
let c_full_refreshes = Obs.Counter.create "ilp.coverage.full_refreshes"

(** Deltas absorbed incrementally (patch path, per delta). *)
let c_delta_applied = Obs.Counter.create "ilp.coverage.delta_applied"

(** Per-example incremental re-saturations triggered by deltas. *)
let c_delta_rounds = Obs.Counter.create "ilp.saturation.delta_rounds"

(** Of those, the ones that rebuilt the identical bottom clause and so
    left the example store, the prepared entry and the memo alone. *)
let c_unchanged = Obs.Counter.create "ilp.saturation.unchanged"

(** Memoized vectors lazily re-tested at patched positions only. *)
let c_cache_patches = Obs.Counter.create "ilp.coverage.cache_patches"

let cache_key clause =
  Obs.Counter.incr c_key_builds;
  Clause.variant_key clause

(* How many incremental-refresh history entries are retained for lazy
   cache patching; a vector untouched for longer is recomputed. *)
let dirty_log_cap = 32

(* ---------------- refresh: full fallback ---------------------------- *)

(* Rebuild everything derived from the source instance, from scratch. *)
let full_refresh t gen =
  Obs.Counter.incr c_full_refreshes;
  let data = Backend.load Backend.default_spec t.inst in
  t.data <- data;
  let bottoms, probes =
    saturate_all ?expand:t.expand ~params:t.params ~backend:data t.inst
      t.examples
  in
  t.bottoms <- bottoms;
  t.probes <- probes;
  t.prepared <- Array.make (Array.length t.bottoms) None;
  t.avg_bottom_len <- mean_bottom_len t.bottoms;
  t.ex_store <- example_store t.inst t.examples t.bottoms;
  t.eids <- Array.init (Array.length t.examples) Fun.id;
  Hashtbl.reset t.cache;
  t.dirty_log <- [];
  t.log_floor <- gen;
  t.src_gen <- gen

(* ---------------- refresh: incremental patch ------------------------ *)

(* Swap example [i]'s saturation inside the shared example store:
   delete the old clause's facts under the example's eid, insert the
   new clause's. Set semantics make the sequence idempotent, so a
   parent and a [sub] structure patching the same shared store (same
   eid, same old/new clauses — saturation is deterministic) converge
   to the same state. *)
let patch_ex_store t i (old_b : Clause.t) (new_b : Clause.t) =
  match t.ex_store with
  | None -> ()
  | Some store ->
      let eid = Value.int t.eids.(i) in
      let del (a : Atom.t) =
        if Atom.is_ground a then
          ignore (Columnar.remove store a.Atom.rel (eid_row eid a))
      in
      let put (a : Atom.t) =
        if Atom.is_ground a then
          ignore (Columnar.add store a.Atom.rel (eid_row eid a))
      in
      del old_b.Clause.head;
      List.iter del old_b.Clause.body;
      put new_b.Clause.head;
      List.iter put new_b.Clause.body

(* Affectedness from probe sets: example [i]'s saturation can only
   change if some delta tuple holds a value of its probe set (see
   {!Bottom.saturation_with_probes} for why that is sound, for a whole
   batch and across budget growths). Constants that only sit in the
   bottom clause — values at non-expandable positions, constants first
   seen at the last depth — were never read on, so a delta holding
   them cannot reach it. *)
let affected_positions t ds =
  let dvals : (Value.t, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun d -> Array.iter (fun v -> Hashtbl.replace dvals v ()) (Delta.tuple d))
    ds;
  List.filter
    (fun i -> Array.exists (Hashtbl.mem dvals) t.probes.(i))
    (List.init (Array.length t.probes) Fun.id)

(* Re-saturate example [i] and report whether its bottom clause
   changed. The probe set is replaced either way (the reads may have
   moved while the clause did not); an identical clause leaves the
   example store, the prepared entry and the memo alone. *)
let resaturate t i =
  Obs.Counter.incr c_delta_rounds;
  let old_b = t.bottoms.(i) in
  let new_b, probes =
    Bottom.saturation_with_probes ?expand:t.expand ~backend:t.data
      ~params:t.params t.inst t.examples.(i)
  in
  t.probes.(i) <- probes;
  if Clause.equal old_b new_b then begin
    Obs.Counter.incr c_unchanged;
    false
  end
  else begin
    t.bottoms.(i) <- new_b;
    t.prepared.(i) <- None;
    patch_ex_store t i old_b new_b;
    true
  end

let incremental_refresh t ds gen =
  (* catch the private saturation snapshot up; set semantics make
     re-application a no-op when a shared [sub] already absorbed it *)
  Backend.apply t.data ds;
  Obs.Counter.add c_delta_applied (List.length ds);
  let changed = List.filter (resaturate t) (affected_positions t ds) in
  if changed <> [] then begin
    t.avg_bottom_len <- mean_bottom_len t.bottoms;
    t.dirty_log <- (gen, Array.of_list changed) :: t.dirty_log;
    (* bound the history; vectors older than the retained window are
       recomputed instead of patched *)
    let rec take k = function
      | x :: tl when k > 0 ->
          let kept, dropped = take (k - 1) tl in
          (x :: kept, dropped)
      | rest -> ([], rest)
    in
    let kept, dropped = take dirty_log_cap t.dirty_log in
    (match dropped with
    | (g, _) :: _ ->
        t.dirty_log <- kept;
        t.log_floor <- g
    | [] -> ())
  end;
  t.src_gen <- gen

(* Bring the structure up to date with the source. The subscribed
   delta stream must account for the whole generation gap (it always
   does single-threaded; the length check is a defensive fallback) and
   must not touch the target relation — the example store keys label
   facts by eid and the fallback keeps that path simple and obviously
   correct. Everything else rides the patch path. *)
let refresh t =
  let gen = Backend.generation t.source in
  if gen <> t.src_gen then begin
    Obs.Counter.incr c_refreshes;
    let ds = List.rev !(t.pending) in
    t.pending := [];
    let lost = List.length ds <> gen - t.src_gen in
    let target_touched =
      List.exists
        (fun d ->
          let r = Delta.rel d in
          Array.exists (fun (e : Atom.t) -> String.equal e.Atom.rel r) t.examples)
        ds
    in
    if lost || target_touched then full_refresh t gen
    else incremental_refresh t ds gen
  end

(** [sub t idxs] is the coverage structure restricted to the examples
    at [idxs] — saturations and the example store are shared, so
    cross-validation folds cost nothing extra. The restriction gets
    its own delta subscription (seeded with the parent's outstanding
    deltas), so both structures absorb later mutations independently
    and idempotently. *)
let sub t idxs =
  let pending = ref !(t.pending) in
  Backend.subscribe t.source (fun ds -> pending := List.rev_append ds !pending);
  let bottoms = Array.map (fun i -> t.bottoms.(i)) idxs in
  {
    examples = Array.map (fun i -> t.examples.(i)) idxs;
    bottoms;
    probes = Array.map (fun i -> t.probes.(i)) idxs;
    prepared = Array.make (Array.length idxs) None;
    avg_bottom_len = mean_bottom_len bottoms;
    max_steps = t.max_steps;
    cache = Hashtbl.create 64;
    cache_enabled = t.cache_enabled;
    domains = t.domains;
    force_parallel = t.force_parallel;
    inst = t.inst;
    source = t.source;
    data = t.data;
    expand = t.expand;
    params = t.params;
    ex_store = t.ex_store;
    eids = Array.map (fun i -> t.eids.(i)) idxs;
    batch_enabled = t.batch_enabled;
    src_gen = t.src_gen;
    pending;
    dirty_log = [];
    log_floor = t.src_gen;
    decomps = t.decomps;
  }

let set_domains t n = t.domains <- max 1 n

let set_force_parallel t b = t.force_parallel <- b

let set_cache t b = t.cache_enabled <- b

(** [set_batch t b] toggles the batched semi-join kernel; with [false]
    the planner routes every test through per-example θ-subsumption
    (the differential battery compares the two). *)
let set_batch t b = t.batch_enabled <- b

(** The columnar example-saturation store, when the kernel is
    available — the operand of {!Castor_relational.Algebra.semijoin_batch}. *)
let store t = t.ex_store

let clear_cache t = Hashtbl.reset t.cache

(* ---------------- planner-dispatched evaluation -------------------- *)

(* Kept beside the planner's own counters: how often a test was
   kernel-eligible (store available, batching on — whatever strategy
   the cost model then picked). Since the kernel runs over a
   generalized hypertree decomposition, cyclic clauses are eligible
   too. *)
let c_batch_eligible = Obs.Counter.create "ilp.coverage.batch_eligible"

let note_plan_reason (d : Planner.decision) =
  match d.Planner.reason with
  | Planner.Cost -> Obs.Counter.incr c_batch_eligible
  | Planner.No_store | Planner.Disabled -> ()

(** Decomposition-memo hits: a planner probe whose pattern hypergraph
    has the signature of one decomposed before — the same clause, or
    any other with the same join shape in the same literal order —
    served without rebuilding the hypertree decomposition. *)
let c_decomp_hits = Obs.Counter.create "ilp.coverage.decomp_memo_hits"

(* Decomposition through the signature-keyed memo (see [decomps]). *)
let memo_decompose t sorts =
  let vsig = Hypergraph.signature sorts in
  match Hashtbl.find_opt t.decomps vsig with
  | Some d ->
      Obs.Counter.incr c_decomp_hits;
      d
  | None ->
      let d = Hypergraph.decompose sorts in
      Hashtbl.replace t.decomps vsig d;
      d

let plan t ~n_undecided clause =
  let d =
    Planner.choose ~batch_enabled:t.batch_enabled ~ex_store:t.ex_store
      ~n_undecided ~avg_bottom_len:t.avg_bottom_len
      ~decompose:(memo_decompose t) clause
  in
  note_plan_reason d;
  d

(* Run the kernel for the given undecided local example indexes and
   note the work it actually did (rows scanned plus leapfrog seeks)
   against the planner's estimate. *)
let run_semijoin t patterns decomp positions =
  match t.ex_store with
  | None -> invalid_arg "Coverage.run_semijoin: no example store"
  | Some store ->
      let eids = Array.map (fun i -> t.eids.(i)) positions in
      let work () =
        Obs.Counter.value Algebra.c_rows_scanned
        + Obs.Counter.value Algebra.c_leapfrog_seeks
      in
      let work0 = work () in
      let res =
        Algebra.semijoin_batch ~decomposition:decomp store ~patterns ~eids
      in
      Planner.note_actual (work () - work0);
      res

(* Example [i]'s prepared bottom clause, built on its first
   subsumption test. Main-domain only: worker domains read the targets
   [compute_positions] resolved for them and never touch the array. *)
let prepared_at t i =
  match t.prepared.(i) with
  | Some p -> p
  | None ->
      let p = Subsume.prepare t.bottoms.(i) in
      t.prepared.(i) <- Some p;
      p

(** Subsumption tests that ran out of the step budget and were
    finished without one. Only the budget decides which tests count
    here, never an answer. *)
let c_budget_fallbacks = Obs.Counter.create "ilp.coverage.budget_fallbacks"

(* One exact subsumption test of the compiled [pattern]. A search
   that runs out of [max_steps] is counted and run again, on the same
   domain, with no budget: the answer never depends on the budget.
   [max_steps] is threaded explicitly (not read off [t]) so the worker
   closures built over this function hold an immutable snapshot. *)
let subsumes_exact ~max_steps target pattern =
  Obs.Counter.incr Stats.c_subsumption_tests;
  match Subsume.subsumes_compiled ~max_steps pattern target with
  | Some b -> b
  | None ->
      Obs.Counter.incr c_budget_fallbacks;
      (* no search reaches [max_int] steps *)
      Option.get (Subsume.subsumes_compiled ~max_steps:max_int pattern target)

(* [subsumes_exact] on the planned route: its search steps are noted
   against the planner's estimate. *)
let subsumes_noted ~max_steps target pattern =
  let steps0 = Obs.Counter.value Subsume.c_steps in
  let r = subsumes_exact ~max_steps target pattern in
  Planner.note_actual (Obs.Counter.value Subsume.c_steps - steps0);
  r

(* Coverage bits of [clause] at exactly the given local positions —
   the planner dispatches, the workload is the positions array. Both
   the vector miss path and lazy cache patching funnel through here. *)
let compute_positions t clause (positions : int array) =
  if Array.length positions = 0 then [||]
  else
    match
      (plan t ~n_undecided:(Array.length positions) clause).Planner.strategy
    with
    | Planner.Semijoin (patterns, decomp) ->
        run_semijoin t patterns decomp positions
    | Planner.Subsumption ->
        (* the test closure runs on worker domains, so it captures an
           immutable array of targets resolved here, on the calling
           domain, instead of reading fields of [t] concurrently, and
           one immutable compiled pattern *)
        let targets = Array.map (prepared_at t) positions in
        let pattern = Subsume.compile clause in
        let max_steps = t.max_steps in
        let k = Array.length positions in
        let test j = subsumes_noted ~max_steps targets.(j) pattern in
        let force = t.force_parallel and domains = t.domains in
        if domains <= 1 then Array.init k test
        else Parallel.init ~force ~domains k test

(* Dirty positions of a cache entry stamped [egen]: the union of every
   retained incremental refresh newer than it. *)
let dirty_since t egen =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (g, changed) ->
      if g > egen then
        Array.iter (fun i -> Hashtbl.replace seen i ()) changed)
    t.dirty_log;
  Array.of_list (List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) seen []))

(* Cache lookup with lazy patching: a fresh entry answers directly; an
   entry left stale by incremental refreshes is re-tested at exactly
   the positions whose bottom clauses those refreshes changed, then
   promoted to the current generation; an entry older than the
   retained history reads as a miss (the caller recomputes and
   replaces it). *)
let cached_vector t clause key =
  if not t.cache_enabled then None
  else
    match Hashtbl.find_opt t.cache key with
    | None -> None
    | Some e when e.egen = t.src_gen -> Some e.ev
    | Some e when e.egen >= t.log_floor ->
        let dirty = dirty_since t e.egen in
        let bits = compute_positions t clause dirty in
        Array.iteri (fun j pos -> e.ev.(pos) <- bits.(j)) dirty;
        e.egen <- t.src_gen;
        Obs.Counter.incr c_cache_patches;
        Some e.ev
    | Some _ -> None

(** [covers t clause i] tests coverage of the [i]-th example alone:
    one exact subsumption test of [clause], compiled, against the
    example's prepared bottom clause. It builds no variant key, looks
    nothing up in the memo and asks the planner nothing, so nothing is
    recorded under [ilp.planner.*] (see "One example" above). *)
let covers t clause i =
  Obs.Span.with_span span_covers @@ fun () ->
  refresh t;
  subsumes_exact ~max_steps:t.max_steps (prepared_at t i) (Subsume.compile clause)

(** [vector ?assume ?within t clause] returns the boolean coverage
    vector of [clause] over all examples.

    [assume] marks examples already known to be covered (because
    [clause] generalizes a clause that covered them); those are not
    re-tested. [within] marks the only examples that can possibly be
    covered (because [clause] specializes a clause whose coverage was
    [within]); the rest are reported uncovered without testing. These
    are the paper's coverage-test reuse optimizations
    (Section 7.5.4). *)
let vector ?assume ?within t clause =
  refresh t;
  (* masked queries bypass cache insertion: their vectors are only
     valid for that particular mask *)
  let cacheable = t.cache_enabled && assume = None && within = None in
  let key = cache_key clause in
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      Obs.Span.record_ns span_vector (Float.to_int (dt *. 1e9));
      Obs.Reservoir.note slow_vectors dt key)
  @@ fun () ->
  Obs.Counter.incr Stats.c_coverage_vectors;
  match cached_vector t clause key with
  | Some v ->
      Obs.Counter.incr Stats.c_cache_hits;
      Planner.note_cached ();
      (* a cached unmasked vector answers masked queries exactly *)
      (match within with
      | Some mask -> Array.mapi (fun i b -> b && mask.(i)) v
      | None -> Array.copy v)
  | None ->
      if t.cache_enabled then Obs.Counter.incr c_cache_misses;
      let n = length t in
      let undecided i =
        (match within with Some m when not m.(i) -> false | _ -> true)
        && match assume with Some k when k.(i) -> false | _ -> true
      in
      let positions =
        Array.of_list (List.filter undecided (List.init n Fun.id))
      in
      let bits = compute_positions t clause positions in
      let v =
        Array.init n (fun i ->
            match within with
            | Some m when not m.(i) -> false
            | _ -> (
                match assume with Some k when k.(i) -> true | _ -> false))
      in
      Array.iteri (fun j pos -> v.(pos) <- bits.(j)) positions;
      if cacheable then
        Hashtbl.replace t.cache key { egen = t.src_gen; ev = Array.copy v };
      v

let count v = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 v

(** [covered_count ?assume ?within t clause] = number of covered
    examples. *)
let covered_count ?assume ?within t clause =
  count (vector ?assume ?within t clause)
