(** The read-and-delta seam of the learning stack.

    The paper's implementation talks to a main-memory RDBMS through a
    fixed query surface (Section 7.5.1). Here that surface is {!S}, and
    the data behind it plays one of two roles:

    - the {e live source}: the flat {!Instance} the datasets ingest
      into, wrapped zero-copy by {!of_instance}. Its delta stream drives
      incremental coverage maintenance and Datalog views, and it is the
      read surface of {!Eval}, {!Datalog} and the IND chase;
    - the {e coverage snapshot}: the interned {!Columnar} engine,
      loaded from the source by {!load}, on which {!Bottom}'s
      saturation reads while {!Coverage} builds and patches its
      bottoms.

    {!S} holds exactly what those callers read: indexed lookups
    ([find_matching], [tuples_containing], [has_relation]) and the
    {e delta API} — mutations are {!Delta.t} batches ([apply]),
    observable through [subscribe]; the generation counter is the
    length of the delta log, so derived structures either key caches
    on it or subscribe and patch themselves in place. Scans,
    statistics and the select-project pushdown are not part of the
    seam: the batched coverage kernel and its planner read the
    {!Columnar} example store directly. *)

module Obs = Castor_obs.Obs

let c_wraps = Obs.Counter.create "backend.wraps"

(** The backend signature. Implementations are stateful first-class
    modules: each value of {!t} wraps one database. *)
module type S = sig
  val has_relation : string -> bool

  (** [find_matching rel bindings] — tuples agreeing with every
      [(position, value)] binding; indexed on the first binding. *)
  val find_matching : string -> (int * Value.t) list -> Tuple.t list

  (** [tuples_containing rel v] — tuples mentioning [v] at any
      position, deduplicated. *)
  val tuples_containing : string -> Value.t -> Tuple.t list

  (** [apply ds] applies a batch of deltas in order. Ineffective
      deltas (duplicate adds, absent removes) are dropped; the
      generation advances by the number of effective ones and
      subscribers are notified once with exactly that sub-batch. *)
  val apply : Delta.t list -> unit

  (** [subscribe f] registers [f] to observe every effective delta
      batch, in application order, after it hits the store. *)
  val subscribe : (Delta.t list -> unit) -> unit

  (** Mutation counter of the underlying data — the length of its
      delta log (number of effective deltas ever applied). Equal
      generations imply the data has not changed; structures that do
      not subscribe should key their caches on it. *)
  val generation : unit -> int
end

type t = (module S)

(** [of_instance inst] presents the flat {!Instance} behind the seam,
    zero-copy: mutations of the wrapped instance are immediately
    visible and bump the generation. *)
let of_instance (inst : Instance.t) : t =
  Obs.Counter.incr c_wraps;
  (module struct
    let has_relation rel = Schema.mem_relation (Instance.schema inst) rel

    let find_matching rel bindings = Instance.find_matching inst rel bindings

    let tuples_containing rel v = Instance.tuples_containing inst rel v

    let apply ds = Instance.apply inst ds

    let subscribe f = Instance.subscribe inst f

    let generation () = Instance.generation inst
  end)

(** [of_columnar col] presents the interned {!Columnar} engine behind
    the seam: posting-list lookups over per-relation dictionaries. *)
let of_columnar (col : Columnar.t) : t =
  Obs.Counter.incr c_wraps;
  (module struct
    let has_relation rel = Columnar.has_relation col rel

    let find_matching rel bindings = Columnar.find_matching col rel bindings

    let tuples_containing rel v = Columnar.tuples_containing col rel v

    let apply ds = Columnar.apply col ds

    let subscribe f = Columnar.subscribe col f

    let generation () = Columnar.generation col
  end)

(** The substrate a coverage snapshot is loaded into. The columnar
    engine is the only one. The one-constructor type remains because
    the perfbench harness times [load default_spec inst] as its
    [relational.backend.load_ms] probe; {!Coverage.build} loads its
    snapshot through the same call, so the probe times what coverage
    really does. *)
type spec = Columnar

let default_spec = Columnar

(** [load spec inst] loads a snapshot of {!Instance} [inst] into the
    [spec] substrate, whose generation then moves independently of
    [inst]'s — {!Coverage.build} loads its saturation substrate
    through this call. *)
let load Columnar inst : t = of_columnar (Columnar.of_instance inst)

let generation (b : t) =
  let module B = (val b) in
  B.generation ()

(** [apply b ds] — batch mutation through the delta API; subscribers
    of [b] see the effective sub-batch once. *)
let apply (b : t) ds =
  let module B = (val b) in
  B.apply ds

(** [subscribe b f] — observe every effective delta batch of [b]. *)
let subscribe (b : t) f =
  let module B = (val b) in
  B.subscribe f
