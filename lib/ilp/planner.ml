(** Cost-based coverage planning.

    Every candidate clause admits up to three evaluation strategies:
    reusing a {e cached vector} (free), the {e batched semi-join}
    kernel ({!Castor_relational.Algebra.semijoin_batch}), and
    per-example {e indexed θ-subsumption} ({!Castor_logic.Subsume}).
    Earlier the dispatch was hardcoded in {!Coverage} — acyclic always
    rode the kernel, cyclic always fell back — and even the first
    cost-based planner kept a forced [Cyclic] reason because the
    kernel could not evaluate cyclic bodies at all. Since the kernel
    runs over a generalized hypertree decomposition
    ({!Castor_relational.Hypergraph.decompose}) with worst-case-
    optimal bag materialization, {e every} clause is kernel-eligible
    and the choice is purely the estimate an RDBMS optimizer would
    make, fed by the exact statistics of the {!Columnar} example
    store:

    - a semi-join program scans, per pattern, either the whole
      relation ([cardinality]) or — when the pattern carries a
      constant — one index bucket, estimated as
      [cardinality / distinct_count] at that column; every multi-edge
      bag of the decomposition additionally pays its worst-case
      materialization bound, the product of its members' scan
      estimates (the AGM-style bound the leapfrog join cannot
      exceed);
    - a subsumption pass runs one search per undecided example, whose
      matching work grows with the candidate length and the bottom
      clauses it is matched against — estimated as
      [n_undecided × clause_len × avg_bottom_len × branching].

    Both estimates are in "rows touched", so they are comparable; the
    cheaper strategy wins. The batch kernel dominates on full vectors
    (one program amortized over all undecided examples) while a single
    [covers] probe usually prefers subsumption — exactly the split the
    old hardcoded dispatch could not express. Wide (cyclic-core)
    decompositions often price themselves out on big relations and
    land on subsumption — but by cost, never by force.

    Decisions, decomposition widths and estimated-vs-actual costs are
    recorded under [ilp.planner.*]; {!note_actual} is fed with the
    observed row/step counts so any metrics dump shows how honest the
    model is. *)

open Castor_relational
open Castor_logic
module Obs = Castor_obs.Obs

let c_decisions = Obs.Counter.create "ilp.planner.decisions"

let c_choice_semijoin = Obs.Counter.create "ilp.planner.choice.semijoin"

let c_choice_subsumption = Obs.Counter.create "ilp.planner.choice.subsumption"

let c_choice_cached = Obs.Counter.create "ilp.planner.choice.cached"

(** Summed estimated cost of the chosen strategies, in rows; compare
    with [ilp.planner.actual_cost] for model calibration. *)
let c_est_cost = Obs.Counter.create "ilp.planner.est_cost"

let c_actual_cost = Obs.Counter.create "ilp.planner.actual_cost"

(** Summed decomposition width over every costed decision, and the
    number of decisions whose clause needed a wide (width >= 2, i.e.
    cyclic-core) decomposition — together they expose how often the
    planner prices a cyclic body instead of forcing a fallback. *)
let c_width_sum = Obs.Counter.create "ilp.planner.decomp_width"

let c_wide_decisions = Obs.Counter.create "ilp.planner.decomp_wide"

type strategy =
  | Semijoin of Algebra.pattern list * Hypergraph.decomposition
      (** run the batched kernel on these patterns (head included)
          over this decomposition of their variable hypergraph *)
  | Subsumption  (** per-example θ-subsumption against the bottoms *)

type reason =
  | Cost  (** both strategies applicable; the estimates decided *)
  | No_store  (** no example-saturation store — kernel unavailable *)
  | Disabled  (** batch kernel toggled off (differential testing) *)

type decision = {
  strategy : strategy;
  reason : reason;
  est_semijoin : float;  (** rows a kernel pass would scan; [infinity] when inapplicable *)
  est_subsumption : float;  (** rows a subsumption pass would touch *)
  width : int;
      (** decomposition width of the clause hypergraph: 1 acyclic,
          >= 2 cyclic core, 0 when no decomposition was computed
          ([No_store]/[Disabled]) *)
}

(** Rough branching factor of the subsumption search per candidate
    literal × bottom literal pair (backtracking with forward
    checking). *)
let subsumption_branching = 4.0

let pattern_of_atom (a : Atom.t) =
  {
    Algebra.prel = a.Atom.rel;
    pargs =
      Array.map
        (function
          | Term.Var v -> Algebra.Avar v
          | Term.Const c -> Algebra.Aconst c)
        a.Atom.args;
  }

(* Estimated rows one pattern scan touches: the relation cardinality
   scaled by the selectivity of every constant-bearing column under
   the independence assumption — [card × Π_j 1/distinct_count(j)] — a
   full scan when the pattern carries no constant. Pattern arg j lives
   at stored column j+1 (column 0 is the example id). The columnar
   store serves both statistics exactly in O(1). *)
let scan_estimate (store : Columnar.t) (p : Algebra.pattern) =
  if not (Columnar.has_relation store p.Algebra.prel) then 0.
  else begin
    let card = float_of_int (Columnar.cardinality store p.Algebra.prel) in
    let est = ref card in
    Array.iteri
      (fun j a ->
        match a with
        | Algebra.Aconst _ ->
            let d = Columnar.distinct_count store p.Algebra.prel (j + 1) in
            if d > 0 then est := !est /. float_of_int d
        | Algebra.Avar _ -> ())
      p.Algebra.pargs;
    !est
  end

(* Estimated kernel cost: every pattern is scanned once, and every
   multi-edge bag of the decomposition additionally pays its
   worst-case materialization bound — the product of its members'
   scan estimates (clamped to >= 1 row each), which the
   worst-case-optimal bag join cannot exceed. *)
let est_semijoin store patterns (decomp : Hypergraph.decomposition) =
  let pats = Array.of_list patterns in
  let scans =
    Array.fold_left (fun acc p -> acc +. scan_estimate store p) 0. pats
  in
  Array.fold_left
    (fun acc members ->
      match members with
      | [] | [ _ ] -> acc
      | members ->
          acc
          +. List.fold_left
               (fun prod e ->
                 prod *. Float.max 1. (scan_estimate store pats.(e)))
               1. members)
    scans decomp.Hypergraph.bags

let est_subsumption ~n_undecided ~clause_len ~avg_bottom_len =
  float_of_int n_undecided *. float_of_int clause_len *. avg_bottom_len
  *. subsumption_branching

let record decision =
  Obs.Counter.incr c_decisions;
  let est =
    match decision.strategy with
    | Semijoin _ ->
        Obs.Counter.incr c_choice_semijoin;
        decision.est_semijoin
    | Subsumption ->
        Obs.Counter.incr c_choice_subsumption;
        decision.est_subsumption
  in
  if Float.is_finite est then
    Obs.Counter.add c_est_cost (int_of_float (Float.min est 1e12));
  decision

(** [choose ~batch_enabled ~ex_store ~n_undecided ~avg_bottom_len
    clause] plans the coverage test of [clause] over [n_undecided]
    still-undecided examples. [ex_store] is the columnar
    example-saturation store the kernel would run on ([None] disables
    it); statistics are read from it. [decompose] builds (or serves from a memo —
    {!Coverage} passes its signature-keyed cache) the generalized
    hypertree decomposition of the clause's pattern hypergraph. The
    decision is recorded under [ilp.planner.*]. *)
let choose ~batch_enabled ~(ex_store : Columnar.t option) ~n_undecided
    ~avg_bottom_len ?(decompose = Hypergraph.decompose) (clause : Clause.t) =
  let clause_len = 1 + List.length clause.Clause.body in
  let est_subs = est_subsumption ~n_undecided ~clause_len ~avg_bottom_len in
  match ex_store with
  | None ->
      record
        {
          strategy = Subsumption;
          reason = No_store;
          est_semijoin = infinity;
          est_subsumption = est_subs;
          width = 0;
        }
  | Some _ when not batch_enabled ->
      record
        {
          strategy = Subsumption;
          reason = Disabled;
          est_semijoin = infinity;
          est_subsumption = est_subs;
          width = 0;
        }
  | Some store ->
      (* head included: it must match the bottom clause's head under
         the same substitution, so it is one more join edge *)
      let patterns =
        List.map pattern_of_atom (clause.Clause.head :: clause.Clause.body)
      in
      let decomp = decompose (List.map Algebra.pattern_vars patterns) in
      let width = decomp.Hypergraph.width in
      Obs.Counter.add c_width_sum width;
      if width > 1 then Obs.Counter.incr c_wide_decisions;
      let est_sj = est_semijoin store patterns decomp in
      let strategy =
        if est_sj <= est_subs then Semijoin (patterns, decomp)
        else Subsumption
      in
      record
        {
          strategy;
          reason = Cost;
          est_semijoin = est_sj;
          est_subsumption = est_subs;
          width;
        }

(** A cache hit is the third strategy — counted so the decision mix
    (cached / semi-join / subsumption) is visible in one dump. *)
let note_cached () =
  Obs.Counter.incr c_decisions;
  Obs.Counter.incr c_choice_cached

(** [note_actual n] records the observed cost of an executed plan —
    kernel rows actually scanned, or subsumption search steps actually
    taken — next to the estimate that chose it. Parallel fan-out
    flushes worker counters at pool boundaries, so per-call deltas are
    a close (not exact) account under [domains > 1]. *)
let note_actual n = if n > 0 then Obs.Counter.add c_actual_cost n

(* Distinct variables of an atom, in first-occurrence order. *)
let atom_vars (a : Atom.t) =
  Array.fold_left
    (fun acc t ->
      match t with
      | Term.Var v when not (List.mem v acc) -> v :: acc
      | _ -> acc)
    [] a.Atom.args
  |> List.rev

let rename_atom subst (a : Atom.t) =
  {
    a with
    Atom.args =
      Array.map
        (function
          | Term.Var v as t -> (
              match List.assoc_opt v subst with
              | Some w -> Term.Var w
              | None -> t)
          | t -> t)
        a.Atom.args;
  }

(* Cyclicity of the clause's pattern hypergraph as the planner sees it
   (head included). *)
let clause_cyclic (c : Clause.t) =
  let patterns = List.map pattern_of_atom (c.Clause.head :: c.Clause.body) in
  not (Hypergraph.is_acyclic (List.map Algebra.pattern_vars patterns))

(** [close_cycle clause] appends body literals that close a variable
    cycle, turning the clause's join hypergraph cyclic — the workload
    generator shared by the [cyclic] bench experiment, the fuzz
    sweep's planner check and the differential tests. It reuses
    relations already present in the body (so the closed clause stays
    evaluable against the same store): given literals
    [r(... X .. Y ...)] and [s(... Y .. Z ...)], it appends a copy of
    the first with [X -> Z, Y -> X], closing the triangle
    [X—Y—Z—X]; when no such pair exists it chains two renamed copies
    of a single two-variable literal through a fresh variable. Returns
    [None] when no closing literal makes the hypergraph cyclic (e.g. a
    body whose literals already share all their variables). *)
let close_cycle (clause : Clause.t) =
  let body = Array.of_list clause.Clause.body in
  let n = Array.length body in
  let closed = ref None in
  (* triangle through two distinct body literals *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if !closed = None && i <> j then
        match atom_vars body.(i) with
        | x :: y :: _ -> (
            let vs_j = atom_vars body.(j) in
            if List.mem y vs_j then
              match List.find_opt (fun z -> z <> x && z <> y) vs_j with
              | Some z ->
                  let lit = rename_atom [ (x, z); (y, x) ] body.(i) in
                  let c =
                    { clause with Clause.body = clause.Clause.body @ [ lit ] }
                  in
                  if clause_cyclic c then closed := Some c
              | None -> ())
        | _ -> ()
    done
  done;
  (* fallback: chain one literal with itself through a fresh variable *)
  if !closed = None then begin
    let used =
      List.concat_map atom_vars (clause.Clause.head :: clause.Clause.body)
    in
    let fresh =
      let rec go i =
        let v = "Vcyc" ^ string_of_int i in
        if List.mem v used then go (i + 1) else v
      in
      go 0
    in
    Array.iter
      (fun a ->
        if !closed = None then
          match atom_vars a with
          | x :: y :: _ ->
              let l1 = rename_atom [ (x, y); (y, fresh) ] a in
              let l2 = rename_atom [ (x, fresh); (y, x) ] a in
              let c =
                { clause with Clause.body = clause.Clause.body @ [ l1; l2 ] }
              in
              if clause_cyclic c then closed := Some c
          | _ -> ())
      body
  end;
  !closed
