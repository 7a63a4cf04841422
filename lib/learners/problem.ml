(** A learning task handed to any of the learners: the background
    database, the declared target relation (with typed attributes so
    top-down learners can type their variables), training examples,
    and precomputed coverage structures over the positives and
    negatives. *)

open Castor_relational
open Castor_logic
open Castor_ilp
module Diagnostic = Castor_analysis.Diagnostic
module Obs = Castor_obs.Obs

(** The shared analysis gate position ([`Off | `Warn | `Strict]) —
    the same type {!Castor_analysis.Diagnostic.gate} used by dataset
    import, so one flag drives every analysis entry point. *)
type gate = Diagnostic.gate

(** Raised by the [`Strict] pre-learning gate when the static analysis
    finds error-severity diagnostics in the problem configuration.
    Shared with every other [`Strict] gate. *)
exception Rejected = Diagnostic.Rejected

let c_gate_runs = Obs.Counter.create "learners.gate.runs"

let c_gate_errors = Obs.Counter.create "learners.gate.errors"

let c_gate_warnings = Obs.Counter.create "learners.gate.warnings"

type t = {
  instance : Instance.t;
  target : Schema.relation;
      (** target relation declaration; not part of the schema *)
  train : Examples.t;
  pos_cov : Coverage.t;  (** coverage over [train.pos] *)
  neg_cov : Coverage.t;  (** coverage over [train.neg] *)
  const_pool : (string * Value.t list) list;
      (** per-domain constants that top-down learners may place in
          literals (e.g. phases, course levels, genres) *)
  bottom_params : Bottom.params;
      (** saturation parameters used for the coverage structures; the
          bottom-clause-based learners inherit them so hypothesis and
          coverage spaces agree *)
  rng : Random.State.t;
}

(** [head p] is the most general head atom [T(X0, .., Xn-1)]. *)
let head p =
  Atom.make p.target.Schema.rname
    (List.mapi (fun i _ -> Term.Var (Printf.sprintf "X%d" i)) p.target.Schema.attrs)

(** Domains of the head variables, in order. *)
let head_domains p = List.map (fun a -> a.Schema.domain) p.target.Schema.attrs

(** The saturation and search budget the static analysis checks a
    problem against: [params]' saturation bounds and the step budget
    coverage tests start with ({!Coverage.default_max_steps}). *)
let analysis_budget (params : Bottom.params) =
  {
    Castor_analysis.Modes.depth = params.Bottom.depth;
    max_terms = params.Bottom.max_terms;
    per_relation_cap = params.Bottom.per_relation_cap;
    max_steps = Coverage.default_max_steps;
  }

(* The pre-learning gate: run the static-analysis pass over the
   problem configuration (schema lints + inferred-mode lints) before
   paying for the example saturations. [`Warn] reports diagnostics on
   stderr, [`Strict] additionally raises {!Rejected} on errors,
   [`Off] skips the analysis entirely. *)
let run_gate (gate : gate) ~(bottom_params : Bottom.params) ~const_pool
    instance target =
  match gate with
  | `Off -> ()
  | (`Warn | `Strict) as g ->
      Obs.Counter.incr c_gate_runs;
      let budget = analysis_budget bottom_params in
      let diags =
        Castor_analysis.Analyze.problem_config ~budget ~target
          ~const_pool_domains:
            (List.map fst const_pool @ bottom_params.Bottom.const_domains)
          ~no_expand_domains:bottom_params.Bottom.no_expand_domains
          (Instance.schema instance)
      in
      Obs.Counter.add c_gate_errors (List.length (Diagnostic.errors diags));
      Obs.Counter.add c_gate_warnings (Diagnostic.count Diagnostic.Warning diags);
      Diagnostic.apply_gate g
        ~subject:(Fmt.str "problem %s" target.Schema.rname)
        diags

(** [make ?bottom_params ?const_pool ?seed ?expand ?gate inst target
    train] assembles a problem, precomputing the example saturations.
    The optional [expand] hook threads Castor's IND chase into the
    saturations used for coverage testing. [gate] controls the
    pre-learning static analysis: [`Warn] (default) prints
    warning/error diagnostics, [`Strict] raises {!Rejected} on errors,
    [`Off] disables the check. *)
let make ?(bottom_params = Bottom.default_params) ?(const_pool = []) ?(seed = 42)
    ?expand ?(gate = `Warn) instance target (train : Examples.t) =
  run_gate gate ~bottom_params ~const_pool instance target;
  {
    instance;
    target;
    train;
    pos_cov =
      Coverage.build ?expand ~params:bottom_params instance train.Examples.pos;
    neg_cov =
      Coverage.build ?expand ~params:bottom_params instance train.Examples.neg;
    const_pool;
    bottom_params;
    rng = Random.State.make [| seed |];
  }

(** [recheck ?gate p] re-runs the pre-learning static analysis over an
    already-built problem — used by the unified {!Learner} entry point
    so a problem built with [`Off] can still be gated at learn time. *)
let recheck ?(gate = (`Warn : gate)) p =
  run_gate gate ~bottom_params:p.bottom_params ~const_pool:p.const_pool
    p.instance p.target

(** A learner maps a problem to a Horn definition of the target. *)
type learner = t -> Clause.definition
