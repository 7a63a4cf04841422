(** The unified learner-facing API.

    Every learner in the repository — FOIL, the two Aleph emulations
    built on Progol's search, Golem, ProGolem and Castor — historically
    grew its own [learn ?params] entry point with a learner-specific
    parameter record. This module collapses them behind one surface:

    - a shared {!config} record covering the knobs the experiments
      actually vary (clause length, precision/coverage thresholds,
      sampling and beam widths, safety, parallel coverage domains);
    - a single module type {!S} every learner implements;
    - a registry, so callers select learners by name
      ([Learner.find "foil"]) instead of pattern-matching names at
      every call site.

    The old per-learner [learn ?params] functions remain available and
    are what the [S] implementations delegate to. *)

open Castor_logic

(** The shared configuration record. Each learner reads the fields
    that apply to it and ignores the rest; learner-specific defaults
    live in each implementation's {!S.default_config}. *)
type config = {
  clauselength : int;
      (** max body literals of a candidate clause (top-down learners) *)
  min_precision : float;  (** the paper's minprec = 0.67 *)
  minpos : int;  (** minimum positives a clause must cover *)
  max_clauses : int;  (** covering-loop cap *)
  sample : int;  (** K — example-sampling budget (bottom-up learners) *)
  beam : int;  (** N — beam width (ProGolem, Castor) *)
  safe : bool;  (** emit only safe clauses (Section 7.3) *)
  domains : int;  (** parallel coverage-test domains *)
}

(** [clauselength 6, min_precision 0.67, minpos 2, max_clauses 30,
    sample 5, beam 2, safe false, domains 1]. *)
val default_config : config

(** What a unified learning run returns: the definition plus run
    provenance. *)
module Report : sig
  type t = {
    learner : string;  (** registry name of the learner that ran *)
    definition : Clause.definition;
    seconds : float;  (** wall-clock learning time *)
  }

  val pp : Format.formatter -> t -> unit
end

(** The one module type every learner implements. [learn ?gate]
    re-runs the pre-learning static analysis over the problem through
    the shared [`Off | `Warn | `Strict] gate (default: no re-check —
    {!Problem.make} already gated construction). *)
module type S = sig
  val name : string

  val default_config : config

  val learn : ?gate:Problem.gate -> ?config:config -> Problem.t -> Report.t
end

exception Unknown_learner of string

(** [register l] adds [l] to the registry under [l.name] (lowercased;
    last registration wins). Learner modules self-register at module
    initialization. *)
val register : (module S) -> unit

(** [find name] looks a learner up by (case-insensitive) name.
    @raise Unknown_learner when no learner registered under [name]. *)
val find : string -> (module S)

val find_opt : string -> (module S) option

(** Registered names, sorted. *)
val names : unit -> string list

(** [learn ~name ?gate ?config p] — one-call convenience:
    [find name] and run it. *)
val learn : name:string -> ?gate:Problem.gate -> ?config:config -> Problem.t -> Report.t

(** [make ~name ?defaults run] builds an {!S} implementation from a
    plain [config -> problem -> definition] function, adding the
    shared run protocol: the optional re-analysis gate, coverage
    fan-out over [config.domains] (restored afterwards), wall-clock
    timing, and the [learners.api.runs] counter. *)
val make :
  name:string ->
  ?defaults:config ->
  (config -> Problem.t -> Clause.definition) ->
  (module S)
