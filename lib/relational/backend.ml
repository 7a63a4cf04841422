(** The one storage-backend seam of the learning stack.

    The paper's implementation talks to a main-memory RDBMS through a
    fixed query surface (Section 7.5.1); this repo grew two substrates
    behind that role — the flat hash-indexed {!Instance} and the
    sharded delta-maintained {!Store} — and, before this module, each
    consumer picked one ad hoc ({!Bottom} took an optional lookup
    hook, {!Coverage} hardcoded its dispatch, {!Algebra} reached into
    shard internals). [Backend] is the abstraction they all route
    through instead:

    - {e scans} and {e indexed lookups} by [(relation, position,
      value)] — the two access paths saturation and the semi-join
      kernel need;
    - {e statistics} (cardinalities, per-position distinct counts) —
      what the cost-based coverage planner feeds on;
    - an explicit {e delta API} — mutations are {!Delta.t} values,
      applied singly ([add]/[remove]) or in batches ([apply]) and
      observable through [subscribe]; the generation counter is the
      length of the delta log, so derived structures (coverage memos,
      example stores, materialized views) either key caches on it or
      subscribe and patch themselves in place;
    - {e partitioned access} — the sharded store exposes its shards,
      the flat instance presents itself as one partition, and the
      batched semi-join kernel fans out over whatever it gets;
    - a {!capabilities} record naming what the implementation can do
      natively (pushdown, partitioning, subscription), so consumers
      branch on capabilities instead of sniffing [option]-returning
      methods.

    A future backend (on-disk, remote) is one more implementation of
    {!S}; nothing outside [lib/relational] needs to change. *)

module Obs = Castor_obs.Obs

let c_wraps = Obs.Counter.create "backend.wraps"

let c_creates = Obs.Counter.create "backend.creates"

(** What an implementation serves natively. One explicit record
    instead of scattered optional methods:
    - [pushdown] — {!S.select_project} evaluates whole pattern scans
      inside the engine (and its statistics are exact, not sampled);
      when [false] the method always returns [None] and callers take
      the generic scan-and-filter path without probing;
    - [partitioned] — [n_partitions] may exceed 1 and the partition
      access paths are genuinely shard-local;
    - [subscription] — [apply]/[subscribe] deliver effective deltas to
      subscribers (all in-memory substrates; a future remote backend
      may only poll generations). *)
type capabilities = {
  pushdown : bool;
  partitioned : bool;
  subscription : bool;
}

(** The backend signature. Implementations are stateful first-class
    modules: each value of {!t} owns (or wraps) one database. *)
module type S = sig
  (** Implementation id: ["instance"], ["store"] or ["columnar"]. *)
  val name : string

  (** What this implementation serves natively. *)
  val capabilities : capabilities

  (* -------- schema surface -------- *)

  val relation_names : unit -> string list

  val has_relation : string -> bool

  val arity : string -> int

  (* -------- mutation (the delta API) -------- *)

  (** [add rel tu] inserts (set semantics); [true] when new. The
      singleton form of [apply [Delta.Add (rel, tu)]]. *)
  val add : string -> Tuple.t -> bool

  (** [remove rel tu]; [true] when the tuple was present. The
      singleton form of [apply [Delta.Remove (rel, tu)]]. *)
  val remove : string -> Tuple.t -> bool

  (** [apply ds] applies a batch of deltas in order. Ineffective
      deltas (duplicate adds, absent removes) are dropped; the
      generation advances by the number of effective ones and
      subscribers are notified once with exactly that sub-batch. *)
  val apply : Delta.t list -> unit

  (** [subscribe f] registers [f] to observe every effective delta
      batch, in application order, after it hits the store. *)
  val subscribe : (Delta.t list -> unit) -> unit

  (* -------- reads -------- *)

  val mem : string -> Tuple.t -> bool

  (** [tuples rel] — full scan. *)
  val tuples : string -> Tuple.t list

  (** [find rel pos v] — indexed lookup: tuples whose column [pos]
      holds [v]. *)
  val find : string -> int -> Value.t -> Tuple.t list

  (** [find_matching rel bindings] — tuples agreeing with every
      [(position, value)] binding; indexed on the first binding. *)
  val find_matching : string -> (int * Value.t) list -> Tuple.t list

  (** [tuples_containing rel v] — tuples mentioning [v] at any
      position, deduplicated. *)
  val tuples_containing : string -> Value.t -> Tuple.t list

  (* -------- statistics (the planner's diet) -------- *)

  val cardinality : string -> int

  (** Total tuples across relations. *)
  val size : unit -> int

  (** [distinct_count rel pos] — number of distinct values stored at
      column [pos] of [rel]; the per-position selectivity statistic
      ([cardinality / distinct_count] estimates an indexed probe's
      result size). *)
  val distinct_count : string -> int -> int

  (** [select_project s rel ~consts ~eqs ~project] — optional engine
      pushdown of one whole pattern scan on partition [s]:
      [π_project (σ_{consts ∧ eqs} rel)], deduplicated. [consts] are
      [(column, value)] equality predicates, [eqs] are
      [(column, column)] equalities (repeated variables), [project]
      the output columns. [Some (rows, examined)] evaluates the query
      natively, where [examined] counts the stored rows the engine
      visited (what the generic path reports as
      [algebra.semijoin.rows_scanned]); [None] sends the caller down
      the generic scan-and-filter path. Hash-based substrates return
      [None]; the columnar engine answers with posting-list
      intersections and memoized materializations. *)
  val select_project :
    int ->
    string ->
    consts:(int * Value.t) list ->
    eqs:(int * int) list ->
    project:int list ->
    (Tuple.t list * int) option

  (** Mutation counter of the underlying data — the length of its
      delta log (number of effective deltas ever applied). Equal
      generations imply the data has not changed; structures that do
      not subscribe should key their caches on it. *)
  val generation : unit -> int

  (* -------- partitioned access (the semi-join kernel's view) ------ *)

  (** Number of partitions; 1 for the flat instance. *)
  val n_partitions : unit -> int

  (** Partition owning key value [v] — a pure function of the value,
      identical across backends with the same partition count. *)
  val partition_of_value : Value.t -> int

  (** Rows of [rel] living on one partition. *)
  val partition_tuples : int -> string -> Tuple.t list

  (** Indexed lookup restricted to one partition. *)
  val find_in_partition : int -> string -> int -> Value.t -> Tuple.t list
end

type t = (module S)

(* ------------------------------------------------------------------ *)
(* Implementations                                                     *)
(* ------------------------------------------------------------------ *)

let distinct_at tuples pos =
  List.fold_left
    (fun acc (tu : Tuple.t) ->
      if pos < Array.length tu then Value.Set.add tu.(pos) acc else acc)
    Value.Set.empty tuples
  |> Value.Set.cardinal

(* Per-backend (rel, pos) -> distinct-count memo, keyed on the data
   generation: the planner probes the same few columns on every
   candidate clause, and a full rescan-and-hash per probe (the pre-memo
   behavior) made cost estimation itself O(n). The table is
   closure-local to one backend value and only ever touched from the
   planner's (single-threaded) cost estimation. *)
let memo_distinct memo gen compute rel pos =
  let g = gen () in
  match Hashtbl.find_opt memo (rel, pos) with
  | Some (g', n) when g' = g -> n
  | _ ->
      let n = compute rel pos in
      Hashtbl.replace memo (rel, pos) (g, n);
      n

(** The flat {!Instance} behind the backend surface: one partition,
    global secondary indexes, zero-copy (mutations of the wrapped
    instance are immediately visible and bump the generation). *)
module Instance_backend = struct
  let make (inst : Instance.t) : t =
    Obs.Counter.incr c_wraps;
    let dmemo = Hashtbl.create 32 in
    (module struct
      let name = "instance"

      let capabilities =
        { pushdown = false; partitioned = false; subscription = true }

      let relation_names () = Instance.relation_names inst

      let has_relation rel =
        Schema.mem_relation (Instance.schema inst) rel

      let arity rel = Schema.arity (Instance.schema inst) rel

      let add rel tu =
        if Instance.mem inst rel tu then false
        else begin
          Instance.add inst rel tu;
          true
        end

      let remove rel tu = Instance.remove inst rel tu

      let apply ds = Instance.apply inst ds

      let subscribe f = Instance.subscribe inst f

      let mem rel tu = Instance.mem inst rel tu

      let tuples rel = Instance.tuples inst rel

      let find rel pos v = Instance.find inst rel pos v

      let find_matching rel bindings = Instance.find_matching inst rel bindings

      let tuples_containing rel v = Instance.tuples_containing inst rel v

      let cardinality rel = Instance.cardinality inst rel

      let size () = Instance.size inst

      let distinct_count =
        memo_distinct dmemo
          (fun () -> Instance.generation inst)
          (fun rel pos -> distinct_at (Instance.tuples inst rel) pos)

      let select_project _ _ ~consts:_ ~eqs:_ ~project:_ = None

      let generation () = Instance.generation inst

      let n_partitions () = 1

      let partition_of_value _ = 0

      let partition_tuples _ rel = Instance.tuples inst rel

      let find_in_partition _ rel pos v = Instance.find inst rel pos v
    end)
end

(** The sharded {!Store} behind the backend surface: hash-partitioned
    relations with shard-local secondary indexes; the kernel's
    per-partition tasks map one-to-one onto shards. *)
module Store_backend = struct
  let make (store : Store.t) : t =
    Obs.Counter.incr c_wraps;
    let dmemo = Hashtbl.create 32 in
    (module struct
      let name = "store"

      let capabilities =
        { pushdown = false; partitioned = true; subscription = true }

      let relation_names () = Store.relation_names store

      let has_relation rel = Store.has_relation store rel

      let arity rel = Store.arity store rel

      let add rel tu = Store.add store rel tu

      let remove rel tu = Store.remove store rel tu

      let apply ds = Store.apply store ds

      let subscribe f = Store.subscribe store f

      let mem rel tu = Store.mem store rel tu

      let tuples rel = Store.tuples store rel

      let find rel pos v = Store.find store rel pos v

      let find_matching rel = function
        | [] -> Store.tuples store rel
        | (p0, v0) :: rest ->
            List.filter
              (fun (tu : Tuple.t) ->
                List.for_all (fun (p, v) -> Value.equal tu.(p) v) rest)
              (Store.find store rel p0 v0)

      let tuples_containing rel v = Store.tuples_containing store rel v

      let cardinality rel = Store.cardinality store rel

      let size () = Store.size store

      let distinct_count =
        memo_distinct dmemo
          (fun () -> Store.generation store)
          (fun rel pos -> distinct_at (Store.tuples store rel) pos)

      let select_project _ _ ~consts:_ ~eqs:_ ~project:_ = None

      let generation () = Store.generation store

      let n_partitions () = Store.n_shards store

      let partition_of_value v = Store.shard_of_value store v

      let partition_tuples s rel = Store.shard_tuples store s rel

      let find_in_partition s rel pos v = Store.find_in_shard store s rel pos v
    end)
end

(** The interned columnar engine ({!Columnar}) behind the backend
    surface: one partition, per-relation dictionaries, per-position
    int columns with sorted posting lists — exact O(1) statistics and
    a native {!S.select_project} pushdown. *)
module Columnar_backend = struct
  let make (col : Columnar.t) : t =
    Obs.Counter.incr c_wraps;
    (module struct
      let name = "columnar"

      let capabilities =
        { pushdown = true; partitioned = false; subscription = true }

      let relation_names () = Columnar.relation_names col

      let has_relation rel = Columnar.has_relation col rel

      let arity rel = Columnar.arity col rel

      let add rel tu = Columnar.add col rel tu

      let remove rel tu = Columnar.remove col rel tu

      let apply ds = Columnar.apply col ds

      let subscribe f = Columnar.subscribe col f

      let mem rel tu = Columnar.mem col rel tu

      let tuples rel = Columnar.tuples col rel

      let find rel pos v = Columnar.find col rel pos v

      let find_matching rel bindings = Columnar.find_matching col rel bindings

      let tuples_containing rel v = Columnar.tuples_containing col rel v

      let cardinality rel = Columnar.cardinality col rel

      let size () = Columnar.size col

      let distinct_count rel pos = Columnar.distinct_count col rel pos

      let select_project _ rel ~consts ~eqs ~project =
        Columnar.select_project col rel ~consts ~eqs ~project

      let generation () = Columnar.generation col

      let n_partitions () = 1

      let partition_of_value _ = 0

      let partition_tuples _ rel = Columnar.tuples col rel

      let find_in_partition _ rel pos v = Columnar.find col rel pos v
    end)
end

let of_instance = Instance_backend.make

let of_store = Store_backend.make

let of_columnar = Columnar_backend.make

(* ------------------------------------------------------------------ *)
(* Specs: how callers ask for a backend                                *)
(* ------------------------------------------------------------------ *)

(** What kind of substrate to build: the flat instance, the sharded
    store with [k] shards, or the interned columnar engine. This is
    the value the [--backend] CLI flag and the learner config carry. *)
type spec = Flat | Sharded of int | Columnar

(** The substrate every coverage structure and saturation runs on
    unless told otherwise: the columnar engine, whose exact statistics
    and memoized pushdown scan far fewer rows than the hash layouts. *)
let default_spec = Columnar

let spec_to_string = function
  | Flat -> "instance"
  | Sharded k -> Printf.sprintf "store:%d" k
  | Columnar -> "columnar"

(** [spec_of_string s] parses ["instance"], ["store"] (default shard
    count), ["store:<k>"] or ["columnar"].
    @raise Invalid_argument on anything else. *)
let spec_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "instance" | "flat" -> Flat
  | "store" -> Sharded Store.default_shards
  | "columnar" | "column" -> Columnar
  | other -> (
      match String.index_opt other ':' with
      | Some i
        when String.sub other 0 i = "store" ->
          let k =
            try int_of_string (String.sub other (i + 1) (String.length other - i - 1))
            with _ -> invalid_arg ("Backend.spec_of_string: bad shard count in " ^ s)
          in
          if k < 1 then invalid_arg "Backend.spec_of_string: shards must be >= 1";
          Sharded k
      | _ ->
          invalid_arg
            ("Backend.spec_of_string: " ^ s
           ^ " (try instance|store[:shards]|columnar)"))

(* a synthetic schema for fresh instance-backed stores built from bare
   (name, arity) pairs — attribute names and domains are never read by
   the backend surface *)
let synthetic_schema rels =
  Schema.make
    (List.map
       (fun (name, arity) ->
         Schema.relation name
           (List.init arity (fun i ->
                Schema.attribute ~domain:"v" (Printf.sprintf "a%d" i))))
       rels)

(** [create spec rels] builds a fresh empty backend for relations
    given as [(name, arity)] pairs — the constructor the coverage
    layer uses for its example-saturation stores. *)
let create spec rels : t =
  Obs.Counter.incr c_creates;
  match spec with
  | Sharded k -> of_store (Store.create ~shards:k rels)
  | Flat -> of_instance (Instance.create (synthetic_schema rels))
  | Columnar -> of_columnar (Columnar.create rels)

(** [load spec inst] presents {!Instance} [inst] through a backend of
    kind [spec]. [Flat] wraps [inst] itself (zero copy — mutations
    flow through); [Sharded k] and [Columnar] load a copy, a snapshot
    whose generation moves independently of [inst]. *)
let load spec inst : t =
  match spec with
  | Flat -> of_instance inst
  | Sharded k -> of_store (Store.of_instance ~shards:k inst)
  | Columnar -> of_columnar (Columnar.of_instance inst)

let name (b : t) =
  let module B = (val b) in
  B.name

let generation (b : t) =
  let module B = (val b) in
  B.generation ()

let capabilities (b : t) =
  let module B = (val b) in
  B.capabilities

(** [apply b ds] — batch mutation through the delta API; subscribers
    of [b] see the effective sub-batch once. *)
let apply (b : t) ds =
  let module B = (val b) in
  B.apply ds

(** [subscribe b f] — observe every effective delta batch of [b]. *)
let subscribe (b : t) f =
  let module B = (val b) in
  B.subscribe f
