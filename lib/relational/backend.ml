(** The one storage-backend seam of the learning stack.

    The paper's implementation talks to a main-memory RDBMS through a
    fixed query surface (Section 7.5.1); this repo keeps two substrates
    behind that role — the flat hash-indexed {!Instance} and the
    interned {!Columnar} engine — and every consumer ({!Bottom}'s
    saturation, {!Coverage}, the {!Algebra} semi-join kernel, the
    planner) routes through [Backend] instead of picking one ad hoc:

    - {e scans} and {e indexed lookups} by [(relation, position,
      value)] — the two access paths saturation and the semi-join
      kernel need;
    - {e statistics} (cardinalities, per-position distinct counts) —
      what the cost-based coverage planner feeds on;
    - an optional {e select-project pushdown} that evaluates one whole
      pattern scan inside the engine;
    - an explicit {e delta API} — mutations are {!Delta.t} values,
      applied singly ([add]/[remove]) or in batches ([apply]) and
      observable through [subscribe]; the generation counter is the
      length of the delta log, so derived structures (coverage memos,
      example stores, materialized views) either key caches on it or
      subscribe and patch themselves in place.

    A future backend (on-disk, remote) is one more implementation of
    {!S}; nothing outside [lib/relational] needs to change. *)

module Obs = Castor_obs.Obs

let c_wraps = Obs.Counter.create "backend.wraps"

let c_creates = Obs.Counter.create "backend.creates"

(** The backend signature. Implementations are stateful first-class
    modules: each value of {!t} owns (or wraps) one database. *)
module type S = sig
  (** Implementation id: ["instance"] or ["columnar"]. *)
  val name : string

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

  (** [select_project rel ~consts ~eqs ~project] — optional engine
      pushdown of one whole pattern scan:
      [π_project (σ_{consts ∧ eqs} rel)], deduplicated. [consts] are
      [(column, value)] equality predicates, [eqs] are
      [(column, column)] equalities (repeated variables), [project]
      the output columns. [Some (rows, examined)] evaluates the query
      natively, where [examined] counts the stored rows the engine
      visited (what the generic path reports as
      [algebra.semijoin.rows_scanned]); [None] sends the caller down
      the generic scan-and-filter path. The flat instance returns
      [None]; the columnar engine answers with posting-list
      intersections and memoized materializations. *)
  val select_project :
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
end

type t = (module S)

(* ------------------------------------------------------------------ *)
(* Implementations                                                     *)
(* ------------------------------------------------------------------ *)

(** The flat {!Instance} behind the backend surface: global secondary
    indexes, zero-copy (mutations of the wrapped instance are
    immediately visible and bump the generation). *)
module Instance_backend = struct
  let make (inst : Instance.t) : t =
    Obs.Counter.incr c_wraps;
    (* (rel, pos) -> (generation, distinct count): the planner probes
       the same few columns on every candidate clause, and a rescan
       per probe would make cost estimation itself O(n). Closure-local
       to this backend value and only touched from the planner's
       single-threaded cost estimation. *)
    let dmemo = Hashtbl.create 32 in
    (module struct
      let name = "instance"

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

      let distinct_count rel pos =
        let g = Instance.generation inst in
        match Hashtbl.find_opt dmemo (rel, pos) with
        | Some (g', n) when g' = g -> n
        | _ ->
            let n =
              List.fold_left
                (fun acc (tu : Tuple.t) ->
                  if pos < Array.length tu then Value.Set.add tu.(pos) acc
                  else acc)
                Value.Set.empty (Instance.tuples inst rel)
              |> Value.Set.cardinal
            in
            Hashtbl.replace dmemo (rel, pos) (g, n);
            n

      let select_project _ ~consts:_ ~eqs:_ ~project:_ = None

      let generation () = Instance.generation inst
    end)
end

(** The interned columnar engine ({!Columnar}) behind the backend
    surface: per-relation dictionaries, per-position int columns with
    sorted posting lists — exact O(1) statistics and a native
    {!S.select_project} pushdown. *)
module Columnar_backend = struct
  let make (col : Columnar.t) : t =
    Obs.Counter.incr c_wraps;
    (module struct
      let name = "columnar"

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

      let select_project rel ~consts ~eqs ~project =
        Columnar.select_project col rel ~consts ~eqs ~project

      let generation () = Columnar.generation col
    end)
end

let of_instance = Instance_backend.make

let of_columnar = Columnar_backend.make

(* ------------------------------------------------------------------ *)
(* Specs: how callers ask for a backend                                *)
(* ------------------------------------------------------------------ *)

(** What kind of substrate to build: the flat instance or the interned
    columnar engine. This is the value the [--backend] CLI flag and
    the learner config carry. *)
type spec = Flat | Columnar

(** The substrate every coverage structure and saturation runs on
    unless told otherwise: the columnar engine, whose exact statistics
    and memoized pushdown scan far fewer rows than the flat layout. *)
let default_spec = Columnar

let spec_to_string = function Flat -> "instance" | Columnar -> "columnar"

(** [spec_of_string s] parses ["instance"] (alias ["flat"]) or
    ["columnar"] (alias ["column"]), ignoring case and surrounding
    blanks.
    @raise Invalid_argument on anything else, with a message fit for a
    command-line usage error. *)
let spec_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "instance" | "flat" -> Flat
  | "columnar" | "column" -> Columnar
  | _ -> invalid_arg ("unknown backend " ^ s ^ " (try instance|columnar)")

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
  | Flat -> of_instance (Instance.create (synthetic_schema rels))
  | Columnar -> of_columnar (Columnar.create rels)

(** [load spec inst] presents {!Instance} [inst] through a backend of
    kind [spec]. [Flat] wraps [inst] itself (zero copy — mutations
    flow through); [Columnar] loads a copy, a snapshot whose
    generation moves independently of [inst]. *)
let load spec inst : t =
  match spec with
  | Flat -> of_instance inst
  | Columnar -> of_columnar (Columnar.of_instance inst)

let name (b : t) =
  let module B = (val b) in
  B.name

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
