(** The read-and-delta seam of the learning stack.

    The paper's implementation talks to a main-memory RDBMS through a
    fixed query surface (Section 7.5.1). Here that surface is a few
    plain functions over the live {!Instance}: {!Eval}, {!Datalog},
    {!Bottom}'s saturation and the IND chase all read the database in
    place through them, so every read sees the data as it is now.

    The surface holds exactly what those callers read: indexed lookups
    ([find_matching], [tuples_containing], [has_relation]) and the
    {e delta API} — mutations are {!Delta.t} batches ([apply]),
    observable through [subscribe]; the generation counter is the
    length of the delta log, so derived structures either key caches
    on it or subscribe and patch themselves in place. Scans,
    statistics and the select-project pushdown are not part of the
    seam: the batched coverage kernel and its planner read the
    {!Columnar} example store directly. *)

type t = Instance.t

let has_relation (b : t) rel = Schema.mem_relation (Instance.schema b) rel

(** [find_matching b rel bindings] — tuples agreeing with every
    [(position, value)] binding; indexed on the first binding. *)
let find_matching (b : t) rel bindings = Instance.find_matching b rel bindings

(** [tuples_containing b rel v] — tuples mentioning [v] at any
    position, each once. *)
let tuples_containing (b : t) rel v = Instance.tuples_containing b rel v

(** [apply b ds] applies a batch of deltas in order. Ineffective
    deltas (duplicate adds, absent removes) are dropped; the
    generation advances by the number of effective ones and
    subscribers are notified once with exactly that sub-batch. *)
let apply (b : t) ds = Instance.apply b ds

(** [subscribe b f] registers [f] to observe every effective delta
    batch, in application order, after it hits the instance. *)
let subscribe (b : t) f = Instance.subscribe b f

(** Mutation counter of the instance — the length of its delta log.
    Equal generations imply the data has not changed; structures that
    do not subscribe should key their caches on it. *)
let generation (b : t) = Instance.generation b

(** [of_instance inst] is [inst]. It remains because the perfbench
    harness wraps its source instance through it. *)
let of_instance (inst : Instance.t) : t = inst

(** A one-constructor substrate type, with [default_spec] and [load]:
    they remain because the perfbench harness times
    [load default_spec inst] as its [relational.backend.load_ms] probe.
    No program path loads a snapshot any more. *)
type spec = Columnar

let default_spec = Columnar

(** [load spec inst] loads a columnar copy of [inst] (see [spec]). *)
let load Columnar inst = Columnar.of_instance inst
