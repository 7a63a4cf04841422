(** Independence sweeps: every requested learner × every variant ×
    every backend spec, compared by data-equivalence signature.

    A learner is schema independent on the family (the paper's
    Definition 3.3, operationalized as in Section 9.2) when its
    learned definition classifies every example identically across all
    variants — equal {!Castor_eval.Experiment.signature}s. Castor must
    pass; the baselines are expected to diverge somewhere, which the
    sweep records rather than hides. A second axis checks that the
    storage backend ({!Castor_relational.Backend.spec}) never changes
    any learner's output on any variant. *)

open Castor_relational
module Dataset = Castor_datasets.Dataset
module Experiment = Castor_eval.Experiment
module Algos = Castor_eval.Algos
module Obs = Castor_obs.Obs

let c_runs = Obs.Counter.create "fuzz.sweep.runs"
let c_checks = Obs.Counter.create "fuzz.equivalence.checks"
let c_divergences = Obs.Counter.create "fuzz.equivalence.divergences"
let c_backend_mismatches = Obs.Counter.create "fuzz.backend.mismatches"
let c_planner_checks = Obs.Counter.create "fuzz.planner.checks"
let c_planner_divergences = Obs.Counter.create "fuzz.planner.divergences"

type run = {
  run_learner : string;
  run_backend : string;  (** printable spec, ["default"] when unset *)
  run_variant : string;
  run_signature : bool array;
  run_clauses : int;
  run_seconds : float;
}

(** Per (learner, backend) verdict over the whole variant family. *)
type verdict = {
  v_learner : string;
  v_backend : string;
  v_equivalent : bool;
  v_diverging : string list;  (** variant names with signature ≠ base *)
}

let backend_name = function
  | None -> "default"
  | Some s -> Backend.spec_to_string s

(** [sweep ?backends ?seed ~learners ds] trains every learner on every
    variant of [ds] under every backend spec and records the coverage
    signatures. [ds.variants] must already contain the generated
    family (base first). *)
let sweep ?(backends = [ None ]) ?(seed = 17) ~learners (ds : Dataset.t) =
  List.concat_map
    (fun backend ->
      List.concat_map
        (fun (vname, _) ->
          let prep = Experiment.prepare ?backend ds vname in
          List.map
            (fun lname ->
              let algo = Algos.of_name ?backend lname in
              let t0 = Unix.gettimeofday () in
              let def = Experiment.train_full ~seed prep algo in
              Obs.Counter.incr c_runs;
              {
                run_learner = lname;
                run_backend = backend_name backend;
                run_variant = vname;
                run_signature = Experiment.signature prep def;
                run_clauses = List.length def.Castor_logic.Clause.clauses;
                run_seconds = Unix.gettimeofday () -. t0;
              })
            learners)
        ds.Dataset.variants)
    backends

(** [verdicts ~base runs] folds the sweep into one verdict per
    (learner, backend): which variants' signatures differ from the
    [base] variant's. *)
let verdicts ~base (runs : run list) =
  let keys =
    List.sort_uniq compare
      (List.map (fun r -> (r.run_learner, r.run_backend)) runs)
  in
  List.map
    (fun (l, b) ->
      let mine =
        List.filter (fun r -> r.run_learner = l && r.run_backend = b) runs
      in
      let base_sig =
        (List.find (fun r -> r.run_variant = base) mine).run_signature
      in
      let diverging =
        List.filter_map
          (fun r ->
            if r.run_variant = base then None
            else begin
              Obs.Counter.incr c_checks;
              if r.run_signature = base_sig then None else Some r.run_variant
            end)
          mine
      in
      Obs.Counter.add c_divergences (List.length diverging);
      {
        v_learner = l;
        v_backend = b;
        v_equivalent = diverging = [];
        v_diverging = diverging;
      })
    keys

(** [planner_agreement ?backend ds] — on every variant of [ds], the
    planner's two executable strategies must diverge only in cost,
    never in result: candidate body prefixes of each variant's bottom
    clauses — their cyclic closures included, since decomposed
    variants are exactly where cyclic cores appear — are evaluated
    with the batch kernel enabled and again through pure per-example
    θ-subsumption, and the vectors compared bit-for-bit
    ([fuzz.planner.checks] / [fuzz.planner.divergences]). Returns the
    diverging (variant, clause) pairs, which must be empty. *)
let planner_agreement ?backend (ds : Dataset.t) =
  let module Coverage = Castor_ilp.Coverage in
  let module Clause = Castor_logic.Clause in
  let take k l =
    let rec go k = function
      | x :: tl when k > 0 -> x :: go (k - 1) tl
      | _ -> []
    in
    go k l
  in
  let diverging = ref [] in
  List.iter
    (fun (vname, _) ->
      let prep = Experiment.prepare ?backend ds vname in
      let cov = prep.Experiment.all_pos in
      Coverage.set_cache cov false;
      let prefixes =
        List.concat_map
          (fun i ->
            let bc, _ = Clause.variabilize cov.Coverage.bottoms.(i) in
            List.map
              (fun k -> Clause.make bc.Clause.head (take k bc.Clause.body))
              [ 1; 2; 3 ])
          (List.init (min 2 (Coverage.length cov)) Fun.id)
      in
      let closed = List.filter_map Castor_ilp.Planner.close_cycle prefixes in
      List.iter
        (fun clause ->
          Obs.Counter.incr c_planner_checks;
          Coverage.set_batch cov true;
          let vb = Coverage.vector cov clause in
          Coverage.set_batch cov false;
          let vs = Coverage.vector cov clause in
          Coverage.set_batch cov true;
          if vb <> vs then begin
            Obs.Counter.incr c_planner_divergences;
            diverging := (vname, Clause.to_string clause) :: !diverging
          end)
        (prefixes @ closed))
    ds.Dataset.variants;
  List.rev !diverging

(** [backend_mismatches runs] — (learner, variant) pairs whose
    signature depends on the storage backend. Must be empty: the
    backend seam is an implementation detail. *)
let backend_mismatches (runs : run list) =
  let keys =
    List.sort_uniq compare
      (List.map (fun r -> (r.run_learner, r.run_variant)) runs)
  in
  let bad =
    List.filter
      (fun (l, v) ->
        match
          List.filter (fun r -> r.run_learner = l && r.run_variant = v) runs
        with
        | [] | [ _ ] -> false
        | r0 :: rest ->
            List.exists (fun r -> r.run_signature <> r0.run_signature) rest)
      keys
  in
  Obs.Counter.add c_backend_mismatches (List.length bad);
  bad
