(** Experiment runner: algorithm × schema-variant grids with
    cross-validation, reproducing the layout of the paper's Tables
    9-12.

    For each variant of a dataset the runner materializes the
    transformed instance, saturates every example once (with Castor's
    IND chase threaded in, so all learners share the same coverage
    semantics), and then runs each algorithm over k stratified folds,
    reporting averaged precision, recall and learning time. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Castor_learners
open Castor_datasets
module Obs = Castor_obs.Obs

(* one span over every training run, whatever the algorithm — the
   denominator when reading the per-operation spans below it *)
let span_train = Obs.Span.create "eval.train"

type algo = {
  algo_name : string;
  run : Problem.t -> Clause.definition;
}

type row = {
  dataset : string;
  schema_name : string;
  algo : string;
  metrics : Metrics.t;
  time_s : float;  (** mean learning wall-clock seconds per fold *)
  clauses : int;  (** clause count of the last fold's definition *)
  definition : Clause.definition;  (** last fold's definition *)
}

(** Precomputed per-variant state: transformed instance plus the
    saturation-backed coverage over all examples. *)
type prepared = {
  pvariant : Dataset.variant;
  all_pos : Coverage.t;
  all_neg : Coverage.t;
  pdataset : Dataset.t;
  bottom_params : Bottom.params;
}

let default_bottom_params =
  {
    Bottom.depth = 2;
    max_terms = Some 60;
    per_relation_cap = 10;
    no_expand_domains = [];
    const_domains = [];
  }

(** [prepare ?bottom_params ?mode dataset variant_name] materializes a
    variant and saturates all examples with the IND chase. The
    dataset's frontier filter is always applied. *)
let prepare ?(bottom_params = default_bottom_params)
    ?(mode : Inclusion.mode = `Equality_only) (ds : Dataset.t) variant_name =
  let bottom_params =
    {
      bottom_params with
      Bottom.no_expand_domains = ds.Dataset.no_expand_domains;
      const_domains = List.map fst ds.Dataset.const_pool;
    }
  in
  let v = Dataset.variant_named ds variant_name in
  let plan = Castor_core.Plan.build ~mode v.Dataset.vschema in
  let expand rel tu = Castor_core.Plan.expand plan v.Dataset.vinstance rel tu in
  {
    pvariant = v;
    all_pos =
      Coverage.build ~expand ~params:bottom_params
        v.Dataset.vinstance ds.Dataset.examples.Examples.pos;
    all_neg =
      Coverage.build ~expand ~params:bottom_params
        v.Dataset.vinstance ds.Dataset.examples.Examples.neg;
    pdataset = ds;
    bottom_params;
  }

(** [prepare_positive_only ?ratio ds variant_name] — like {!prepare},
    but the dataset's negative labels are discarded and replaced by
    closed-world pseudo-negatives sampled from the instance
    (Section 7.3: safe-clause learners can be trained from positive
    examples only). Evaluation against the true negatives still uses
    a {!prepare}d structure. *)
let prepare_positive_only ?(bottom_params = default_bottom_params)
    ?(mode : Inclusion.mode = `Equality_only) ?(ratio = 2) ?(seed = 23)
    (ds : Dataset.t) variant_name =
  let bottom_params =
    {
      bottom_params with
      Bottom.no_expand_domains = ds.Dataset.no_expand_domains;
      const_domains = List.map fst ds.Dataset.const_pool;
    }
  in
  let v = Dataset.variant_named ds variant_name in
  let plan = Castor_core.Plan.build ~mode v.Dataset.vschema in
  let expand rel tu = Castor_core.Plan.expand plan v.Dataset.vinstance rel tu in
  let pseudo_neg =
    Examples.closed_world_negatives ~seed ~ratio v.Dataset.vinstance
      ds.Dataset.target ds.Dataset.examples.Examples.pos
  in
  {
    pvariant = v;
    all_pos =
      Coverage.build ~expand ~params:bottom_params
        v.Dataset.vinstance ds.Dataset.examples.Examples.pos;
    all_neg =
      Coverage.build ~expand ~params:bottom_params
        v.Dataset.vinstance pseudo_neg;
    pdataset = ds;
    bottom_params;
  }

(* stratified index folds *)
let fold_indices ~seed k n =
  let rng = Random.State.make [| seed |] in
  let idx = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  List.init k (fun f ->
      let test = ref [] and train = ref [] in
      Array.iteri
        (fun pos i -> if pos mod k = f then test := i :: !test else train := i :: !train)
        idx;
      (Array.of_list (List.rev !train), Array.of_list (List.rev !test)))

let problem_of_fold prep (ptrain, _) (ntrain, _) ~seed =
  let pos_cov = Coverage.sub prep.all_pos ptrain in
  let neg_cov = Coverage.sub prep.all_neg ntrain in
  {
    Problem.instance = prep.pvariant.Dataset.vinstance;
    target = prep.pdataset.Dataset.target;
    train =
      {
        Examples.pos = pos_cov.Coverage.examples;
        neg = neg_cov.Coverage.examples;
      };
    pos_cov;
    neg_cov;
    const_pool = prep.pdataset.Dataset.const_pool;
    bottom_params = prep.bottom_params;
    rng = Random.State.make [| seed |];
  }

(** Coverage of [def] over a sub-coverage: an example is covered when
    some clause subsumes its saturation. *)
let definition_vector cov (def : Clause.definition) =
  let n = Coverage.length cov in
  let out = Array.make n false in
  List.iter
    (fun c ->
      let v = Coverage.vector cov c in
      Array.iteri (fun i b -> if b then out.(i) <- true) v)
    def.Clause.clauses;
  out

let count v = Array.fold_left (fun a b -> if b then a + 1 else a) 0 v

(** [test_metrics prep def (ptest, ntest)] evaluates on held-out
    examples. *)
let test_metrics prep def (ptest, ntest) =
  let pos_cov = Coverage.sub prep.all_pos ptest in
  let neg_cov = Coverage.sub prep.all_neg ntest in
  let tp = count (definition_vector pos_cov def) in
  let fp = count (definition_vector neg_cov def) in
  Metrics.of_counts ~tp ~fp ~pos_total:(Array.length ptest)

(** [crossval ?folds ?seed prep algo] runs [algo] over stratified
    folds of the prepared variant. *)
let crossval ?(folds = 5) ?(seed = 17) (prep : prepared) (algo : algo) =
  let n_pos = Coverage.length prep.all_pos
  and n_neg = Coverage.length prep.all_neg in
  let pfolds = fold_indices ~seed folds n_pos
  and nfolds = fold_indices ~seed:(seed + 1) folds n_neg in
  let results =
    List.map2
      (fun pf nf ->
        let problem = problem_of_fold prep pf nf ~seed in
        let t0 = Unix.gettimeofday () in
        let def = Obs.Span.with_span span_train (fun () -> algo.run problem) in
        let dt = Unix.gettimeofday () -. t0 in
        let m = test_metrics prep def (snd pf, snd nf) in
        (m, dt, def))
      pfolds nfolds
  in
  let metrics = Metrics.average (List.map (fun (m, _, _) -> m) results) in
  let time_s =
    List.fold_left (fun a (_, t, _) -> a +. t) 0. results
    /. float_of_int (List.length results)
  in
  let _, _, last_def = List.nth results (List.length results - 1) in
  {
    dataset = prep.pdataset.Dataset.name;
    schema_name = prep.pvariant.Dataset.variant_name;
    algo = algo.algo_name;
    metrics;
    time_s;
    clauses = List.length last_def.Clause.clauses;
    definition = last_def;
  }

(** [train_full prep algo] trains on all examples (no held-out split);
    used by the schema-independence checks and the ablations. *)
let train_full ?(seed = 17) (prep : prepared) (algo : algo) =
  let n_pos = Coverage.length prep.all_pos
  and n_neg = Coverage.length prep.all_neg in
  let problem =
    problem_of_fold prep
      (Array.init n_pos Fun.id, [||])
      (Array.init n_neg Fun.id, [||])
      ~seed
  in
  Obs.Span.with_span span_train (fun () -> algo.run problem)

(** [signature prep def] is the coverage bit-vector of [def] over all
    examples of the dataset (positives then negatives) — two learned
    definitions with equal signatures over corresponding variants
    behave identically on the data, the operational notion of
    schema-independent output used in Section 9.2. *)
let signature (prep : prepared) def =
  Array.append
    (definition_vector prep.all_pos def)
    (definition_vector prep.all_neg def)

(** [grid ?folds dataset ~variants ~algos] — the full experiment
    table. *)
let grid ?folds ?bottom_params ?mode (ds : Dataset.t) ~variants ~algos =
  List.concat_map
    (fun vname ->
      let prep = prepare ?bottom_params ?mode ds vname in
      List.map (fun algo -> crossval ?folds prep algo) algos)
    variants
