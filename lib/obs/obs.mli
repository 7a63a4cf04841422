(** Domain-safe observability: metrics and tracing for the learning
    hot paths.

    The paper's evaluation hinges on knowing where learning time goes
    — coverage tests "dominate the time for learning" (Section 7.5.3)
    — and this repo fans coverage tests out over OCaml domains, so the
    instrumentation itself must be race-free or the numbers are noise.
    Every instrument lives in a central registry and is rendered by
    {!report} (text) and {!to_json} (JSON), which the benches and the
    CLI consume.

    Concurrency contract:

    - {!Counter.incr} writes a {e domain-local} scratch cell — no
      contention on the hot path. Worker domains must call {!flush} at
      task boundaries (the {!module:Parallel} pool does); after the
      tasks of all domains have completed and flushed, totals read by
      {!Counter.value} are exact, not approximate.
    - {!Span} and {!Reservoir} updates go straight to [Atomic]/mutex
      state; they are exact at any time.
    - Instruments are registered at module-initialization time, before
      any worker domain exists; creating instruments while other
      domains are already recording is not supported.
    - {!reset} assumes no parallel tasks are in flight. *)

module Counter : sig
  type t

  (** [create name] registers a counter. [name] must be unique;
      re-registering a name returns the existing counter. *)
  val create : ?help:string -> string -> t

  val incr : t -> unit

  val add : t -> int -> unit

  (** [value c] flushes the calling domain's scratch cell of [c] alone
      (no other counter's) and returns the total. Exact once concurrent
      tasks have completed (their pool flushes at task boundaries). *)
  val value : t -> int

  val reset : t -> unit

  val name : t -> string
end

module Span : sig
  (** A named monotonic timer: cumulative time, call count, and a
      log-bucketed latency histogram. *)
  type t

  val create : ?help:string -> string -> t

  (** [with_span s f] times [f ()] on the monotonic clock, recording
      even when [f] raises. *)
  val with_span : t -> (unit -> 'a) -> 'a

  (** [record_ns s ns] records an externally measured duration. *)
  val record_ns : t -> int -> unit

  val count : t -> int

  (** Cumulative seconds. *)
  val total_s : t -> float

  (** [quantile s q] approximates the [q]-quantile (0 ≤ q ≤ 1) of the
      recorded durations in seconds, from the log-bucketed histogram
      (the estimate is the geometric midpoint of the bucket containing
      the rank, so it is within a factor √2). NaN when empty. *)
  val quantile : t -> float -> float

  (** Largest recorded duration in seconds; 0 when empty. *)
  val max_s : t -> float

  val reset : t -> unit

  val name : t -> string
end

module Reservoir : sig
  (** Keeps the [capacity] slowest labelled events seen since the last
      reset — the diagnosis tool for "which clauses made coverage
      testing slow". *)
  type t

  val create : ?help:string -> ?capacity:int -> string -> t

  (** [note r seconds label] offers an event; kept only if it is among
      the slowest seen. Cheap (no lock) when it is not. *)
  val note : t -> float -> string -> unit

  (** Slowest first. *)
  val slowest : t -> (float * string) list

  val reset : t -> unit

  val name : t -> string
end

(** Flush the calling domain's counter scratch into the shared
    totals. Worker pools call this at task boundaries. *)
val flush : unit -> unit

(** Zero every registered instrument. Call between measurements, with
    no parallel tasks in flight. *)
val reset : unit -> unit

(** Human-readable metrics block: non-zero counters, active spans with
    count / total / mean / p50 / p90 / p99 / max, reservoir heads. *)
val report : unit -> string

(** The full registry as a JSON object:
    [{"counters":{...},"spans":[...],"reservoirs":[...]}]. *)
val to_json : unit -> string
