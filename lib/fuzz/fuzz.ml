(** Orchestration of the schema-variant fuzzing pipeline:

    induce (zero-config language bias, {!Bias}) →
    generate (seeded variant family, {!Vargen}) →
    sweep (learners × variants, {!Sweep}) →
    shrink (minimal counterexamples for divergers, {!Shrink}).

    [run] is the single entry point used by the CLI, the bench
    experiment and the tests; [report_to_json] serializes the outcome
    for the [castor_cli fuzz --json] report and CI artifacts. *)

open Castor_relational
open Castor_logic
module Dataset = Castor_datasets.Dataset
module Obs = Castor_obs.Obs

let c_reports = Obs.Counter.create "fuzz.reports"

type config = {
  seed : int;
  budget : int;  (** max generated variants *)
  max_depth : int;  (** max chained ops per variant *)
  learners : string list;  (** registry names to sweep *)
  induce : bool;  (** strip hand-written bias and re-induce *)
  shrink : bool;  (** shrink divergers to counterexamples *)
}

let default_config =
  {
    seed = 17;
    budget = 8;
    max_depth = 2;
    learners = [ "castor" ];
    induce = true;
    shrink = true;
  }

type report = {
  rp_dataset : string;
  rp_config : config;
  rp_bias : Bias.t option;  (** [None] when [induce = false] *)
  rp_variants : (string * Transform.t) list;  (** generated only *)
  rp_runs : Sweep.run list;
  rp_verdicts : Sweep.verdict list;
  rp_planner_divergences : (string * string) list;
      (** (variant, clause) pairs where the batch kernel and
          θ-subsumption disagreed — planner strategies may diverge in
          cost only, never in result, so this must be empty *)
  rp_counterexamples : Shrink.counterexample list;
}

(** [run ?config ds] executes the full pipeline on [ds] treated as raw
    data. The dataset's hand-coded variants are ignored; the family is
    regenerated from the (induced) schema metadata. *)
let run ?(config = default_config) (ds : Dataset.t) =
  let ds, bias =
    if config.induce then
      let ds', b = Bias.induce (Dataset.strip_bias ds) in
      (ds', Some b)
    else (ds, None)
  in
  let generated =
    Vargen.generate ~seed:config.seed ~budget:config.budget
      ~max_depth:config.max_depth ds
  in
  let base = ("base", []) in
  let ds = { ds with Dataset.variants = base :: generated } in
  let runs = Sweep.sweep ~seed:config.seed ~learners:config.learners ds in
  let verdicts = Sweep.verdicts ~base:(fst base) runs in
  let planner_divergences = Sweep.planner_agreement ds in
  let counterexamples =
    if not config.shrink then []
    else
      List.filter_map
        (fun (v : Sweep.verdict) ->
          if v.Sweep.v_equivalent then None
          else Shrink.falsify ~seed:config.seed ~learner:v.Sweep.v_learner ds)
        verdicts
  in
  Obs.Counter.incr c_reports;
  {
    rp_dataset = ds.Dataset.name;
    rp_config = config;
    rp_bias = bias;
    rp_variants = generated;
    rp_runs = runs;
    rp_verdicts = verdicts;
    rp_planner_divergences = planner_divergences;
    rp_counterexamples = counterexamples;
  }

(** [independent report ~learner] — did [learner] pass every
    equivalence check? *)
let independent report ~learner =
  List.for_all
    (fun (v : Sweep.verdict) ->
      (not (String.equal v.Sweep.v_learner learner)) || v.Sweep.v_equivalent)
    report.rp_verdicts

(* ------------------------------------------------------------------ *)
(* JSON serialization (hand-rolled: no JSON library in the image)      *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ json_escape s ^ "\""
let jlist f l = "[" ^ String.concat "," (List.map f l) ^ "]"
let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let jsig s =
  jstr (String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list s)))

let report_to_json (r : report) =
  let config c =
    jobj
      [
        ("seed", string_of_int c.seed);
        ("budget", string_of_int c.budget);
        ("max_depth", string_of_int c.max_depth);
        ("learners", jlist jstr c.learners);
        ("induce", string_of_bool c.induce);
        ("shrink", string_of_bool c.shrink);
      ]
  in
  let bias (b : Bias.t) =
    jobj
      [
        ("discovered_fds", string_of_int b.Bias.discovered_fds);
        ("discovered_inds", string_of_int b.Bias.discovered_inds);
        ("join_domains", jlist jstr b.Bias.join_domains);
        ("const_domains", jlist jstr b.Bias.const_domains);
        ("no_expand_domains", jlist jstr b.Bias.no_expand_domains);
        ( "modes",
          jlist (fun m -> jstr (Castor_analysis.Modes.to_string m)) b.Bias.modes );
      ]
  in
  let variant (name, ops) =
    jobj
      [
        ("name", jstr name);
        ("ops", jstr (Fmt.str "%a" Transform.pp ops));
        ("depth", string_of_int (List.length ops));
      ]
  in
  let run (x : Sweep.run) =
    jobj
      [
        ("learner", jstr x.Sweep.run_learner);
        ("variant", jstr x.Sweep.run_variant);
        ("clauses", string_of_int x.Sweep.run_clauses);
        ("seconds", Printf.sprintf "%.3f" x.Sweep.run_seconds);
        ("signature", jsig x.Sweep.run_signature);
      ]
  in
  let verdict (v : Sweep.verdict) =
    jobj
      [
        ("learner", jstr v.Sweep.v_learner);
        ("equivalent", string_of_bool v.Sweep.v_equivalent);
        ("diverging", jlist jstr v.Sweep.v_diverging);
      ]
  in
  let cx (c : Shrink.counterexample) =
    jobj
      [
        ("dataset", jstr c.Shrink.cx_dataset);
        ("learner", jstr c.Shrink.cx_learner);
        ("variant", jstr c.Shrink.cx_variant);
        ("ops", jstr (Fmt.str "%a" Transform.pp c.Shrink.cx_ops));
        ( "side",
          jstr (match c.Shrink.cx_side with `Base -> "base" | `Variant -> "variant") );
        ("positive", string_of_bool c.Shrink.cx_positive);
        ("example", jstr (Atom.to_string c.Shrink.cx_example));
        ("clause", jstr (Clause.to_string c.Shrink.cx_clause));
        ("seed", string_of_int c.Shrink.cx_seed);
        ("shrink_steps", string_of_int c.Shrink.cx_steps);
      ]
  in
  jobj
    [
      ("dataset", jstr r.rp_dataset);
      ("config", config r.rp_config);
      ( "bias",
        match r.rp_bias with None -> "null" | Some b -> bias b );
      ("variants", jlist variant r.rp_variants);
      ("runs", jlist run r.rp_runs);
      ("verdicts", jlist verdict r.rp_verdicts);
      ( "planner_divergences",
        jlist
          (fun (v, c) -> jobj [ ("variant", jstr v); ("clause", jstr c) ])
          r.rp_planner_divergences );
      ("counterexamples", jlist cx r.rp_counterexamples);
    ]
