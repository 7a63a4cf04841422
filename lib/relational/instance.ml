(** In-memory database instances with hash indexes.

    This plays the role of the paper's main-memory RDBMS (VoltDB in the
    authors' implementation, Section 7.5.1): tuples are stored
    per-relation and indexed by [(relation, column, constant)] so that
    bottom-clause construction can find all tuples containing a given
    constant with one lookup per column. *)

type t = {
  schema : Schema.t;
  store : (string, Tuple.t list ref) Hashtbl.t;  (** tuples in insertion order, newest first *)
  index : (string * int * Value.t, Tuple.t list ref) Hashtbl.t;
  log : Delta.Log.t;
      (** every effective [add]/[remove] is appended here as a delta;
          the generation counter {!Backend} exposes is the log length,
          and derived structures (coverage memos, example stores,
          materialized views) subscribe to it instead of diffing *)
}

let create schema =
  let store = Hashtbl.create 64 in
  List.iter (fun (r : Schema.relation) -> Hashtbl.replace store r.rname (ref []))
    schema.Schema.relations;
  { schema; store; index = Hashtbl.create 4096; log = Delta.Log.create () }

let schema t = t.schema

(** Mutation counter, derived from the delta log: increases exactly
    when an [add] inserts or a [remove] deletes a tuple. Equal
    generations imply unchanged data. *)
let generation t = Delta.Log.length t.log

(** [subscribe t f] registers [f] to be called with every batch of
    effective deltas, in application order, after they hit the store. *)
let subscribe t f = Delta.Log.subscribe t.log f

let relation_names t =
  List.map (fun (r : Schema.relation) -> r.Schema.rname) t.schema.Schema.relations

exception Arity_mismatch of string

let bucket t rel =
  match Hashtbl.find_opt t.store rel with
  | Some b -> b
  | None -> raise (Schema.Unknown_relation rel)

(** [find t rel pos v] returns the tuples of [rel] whose column [pos]
    holds constant [v] (indexed lookup). *)
let find t rel pos v =
  match Hashtbl.find_opt t.index (rel, pos, v) with
  | Some l -> !l
  | None -> []

(** [mem t rel tuple] tests tuple presence (set semantics) through the
    column-0 index bucket; a 0-ary tuple has none, so it scans.
    @raise Schema.Unknown_relation if [rel] is not in the schema. *)
let mem t rel (tuple : Tuple.t) =
  let b = bucket t rel in
  if Tuple.arity tuple = 0 then List.exists (Tuple.equal tuple) !b
  else List.exists (Tuple.equal tuple) (find t rel 0 tuple.(0))

(* Mutators come in two layers: [insert]/[delete] touch the store and
   indexes and report effectiveness without logging, so a batch
   [apply] can collect its effective deltas and notify subscribers
   once; [add]/[remove] are the public singleton forms. *)

let insert t rel (tuple : Tuple.t) =
  if Tuple.arity tuple <> Schema.arity t.schema rel then
    raise (Arity_mismatch rel);
  if mem t rel tuple then false
  else begin
    let b = bucket t rel in
    b := tuple :: !b;
    Array.iteri
      (fun i v ->
        let key = (rel, i, v) in
        match Hashtbl.find_opt t.index key with
        | Some l -> l := tuple :: !l
        | None -> Hashtbl.add t.index key (ref [ tuple ]))
      tuple;
    true
  end

let delete t rel (tuple : Tuple.t) =
  if Tuple.arity tuple <> Schema.arity t.schema rel then
    raise (Arity_mismatch rel);
  if not (mem t rel tuple) then false
  else begin
    let b = bucket t rel in
    b := List.filter (fun tu -> not (Tuple.equal tu tuple)) !b;
    Array.iteri
      (fun i v ->
        let key = (rel, i, v) in
        match Hashtbl.find_opt t.index key with
        | Some l -> (
            l := List.filter (fun tu -> not (Tuple.equal tu tuple)) !l;
            match !l with [] -> Hashtbl.remove t.index key | _ -> ())
        | None -> ())
      tuple;
    true
  end

(** [add t rel tuple] inserts a tuple; duplicates are ignored so
    relations behave as sets. An effective insert is logged as an
    [Add] delta (advancing the generation and notifying subscribers).
    @raise Arity_mismatch if the tuple does not fit the sort. *)
let add t rel (tuple : Tuple.t) =
  if insert t rel tuple then Delta.Log.extend t.log [ Delta.Add (rel, tuple) ]

let add_list t rel vs = add t rel (Tuple.of_list vs)

(** [remove t rel tuple] deletes a tuple, delta-maintaining {e every}
    secondary index bucket: the [(rel, column, value)] entry of each
    column is pruned (and dropped when it empties), never rebuilt.
    Returns [true] when the tuple was present, in which case a
    [Remove] delta is logged. The add/remove interleaving invariant —
    indexes equal to a from-scratch rebuild — is checked by
    {!index_consistent} and a QCheck property.
    @raise Arity_mismatch if the tuple does not fit the sort. *)
let remove t rel (tuple : Tuple.t) =
  if delete t rel tuple then begin
    Delta.Log.extend t.log [ Delta.Remove (rel, tuple) ];
    true
  end
  else false

(** [apply t ds] applies a batch of deltas in order; ineffective ones
    (duplicate adds, absent removes) are dropped, and subscribers are
    notified once with exactly the effective sub-batch. *)
let apply t ds =
  let effective =
    List.filter
      (function
        | Delta.Add (rel, tu) -> insert t rel tu
        | Delta.Remove (rel, tu) -> delete t rel tu)
      ds
  in
  Delta.Log.extend t.log effective

(** [index_consistent t] compares the delta-maintained secondary index
    against a from-scratch rebuild: every [(relation, column, value)]
    bucket must hold exactly the tuples of the primary store carrying
    that value in that column, with no stale buckets left behind. *)
let index_consistent t =
  let expected = Hashtbl.create 256 in
  Hashtbl.iter
    (fun rel b ->
      List.iter
        (fun tu ->
          Array.iteri
            (fun i v ->
              let key = (rel, i, v) in
              let l = Option.value ~default:[] (Hashtbl.find_opt expected key) in
              Hashtbl.replace expected key (tu :: l))
            tu)
        !b)
    t.store;
  let norm l = List.sort Tuple.compare l in
  Hashtbl.length expected = Hashtbl.length t.index
  && Hashtbl.fold
       (fun key l acc ->
         acc
         &&
         match Hashtbl.find_opt t.index key with
         | Some actual -> List.equal Tuple.equal (norm !actual) (norm l)
         | None -> false)
       expected true

(** [tuples t rel] returns all tuples of [rel]. *)
let tuples t rel = !(bucket t rel)

let cardinality t rel = List.length (tuples t rel)

(** Total number of tuples across all relations. *)
let size t =
  Hashtbl.fold (fun _ b acc -> acc + List.length !b) t.store 0

(** [find_matching t rel bindings] returns tuples agreeing with every
    [(position, value)] binding; uses the index on the first binding. *)
let find_matching t rel = function
  | [] -> tuples t rel
  | (p0, v0) :: rest ->
      List.filter
        (fun tu -> List.for_all (fun (p, v) -> Value.equal tu.(p) v) rest)
        (find t rel p0 v0)

(** [tuples_containing t rel v] returns all tuples of [rel] in which
    constant [v] occurs at any position, each once: a tuple is taken
    from the index bucket of the first position that holds [v]. *)
let tuples_containing t rel v =
  let ar = Schema.arity t.schema rel in
  let out = ref [] in
  for pos = 0 to ar - 1 do
    List.iter
      (fun (tu : Tuple.t) ->
        let rec earlier p = p < pos && (Value.equal tu.(p) v || earlier (p + 1)) in
        if not (earlier 0) then out := tu :: !out)
      (find t rel pos v)
  done;
  !out

(** Distinct values stored under attribute [aname] of [rel]. *)
let column_values t rel aname =
  let r = Schema.find_relation t.schema rel in
  match Schema.positions r [ aname ] with
  | [ pos ] ->
      List.fold_left
        (fun acc tu -> Value.Set.add tu.(pos) acc)
        Value.Set.empty (tuples t rel)
      |> Value.Set.elements
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Constraint checking                                                 *)
(* ------------------------------------------------------------------ *)

(** [satisfies_fd t fd] checks an FD by hashing LHS projections. *)
let satisfies_fd t (fd : Schema.fd) =
  let r = Schema.find_relation t.schema fd.fd_rel in
  let lhs = Schema.positions r fd.fd_lhs and rhs = Schema.positions r fd.fd_rhs in
  let table = Hashtbl.create 64 in
  List.for_all
    (fun tu ->
      let key = Tuple.project lhs tu and v = Tuple.project rhs tu in
      match Hashtbl.find_opt table (Tuple.hash key) with
      | Some pairs -> (
          match List.find_opt (fun (k, _) -> Tuple.equal k key) pairs with
          | Some (_, v') -> Tuple.equal v v'
          | None ->
              Hashtbl.replace table (Tuple.hash key) ((key, v) :: pairs);
              true)
      | None ->
          Hashtbl.add table (Tuple.hash key) [ (key, v) ];
          true)
    (tuples t fd.fd_rel)

let projection_set t rel attrs =
  let r = Schema.find_relation t.schema rel in
  let pos = Schema.positions r attrs in
  List.fold_left
    (fun acc tu -> Tuple.Set.add (Tuple.project pos tu) acc)
    Tuple.Set.empty (tuples t rel)

(** [satisfies_ind t ind] checks the inclusion (and the reverse
    inclusion when [ind.equality] holds). *)
let satisfies_ind t (ind : Schema.ind) =
  let sub = projection_set t ind.sub_rel ind.sub_attrs in
  let sup = projection_set t ind.sup_rel ind.sup_attrs in
  Tuple.Set.subset sub sup && ((not ind.equality) || Tuple.Set.subset sup sub)

(** [violations t] lists human-readable descriptions of violated
    constraints; empty means [t] is a legal instance of its schema. *)
let violations t =
  let fd_bad =
    List.filter_map
      (fun fd ->
        if satisfies_fd t fd then None
        else
          Some
            (Fmt.str "FD %s: %a -> %a violated" fd.Schema.fd_rel
               Fmt.(list ~sep:comma string)
               fd.Schema.fd_lhs
               Fmt.(list ~sep:comma string)
               fd.Schema.fd_rhs))
      t.schema.Schema.fds
  in
  let ind_bad =
    List.filter_map
      (fun ind ->
        if satisfies_ind t ind then None
        else Some (Fmt.str "IND %a violated" Schema.pp_ind ind))
      t.schema.Schema.inds
  in
  fd_bad @ ind_bad

let satisfies_constraints t = violations t = []

(** Structural equality of instances: same schema relation names and
    same tuple sets. *)
let equal a b =
  let names_a = List.sort String.compare (relation_names a) in
  let names_b = List.sort String.compare (relation_names b) in
  names_a = names_b
  && List.for_all
       (fun rel ->
         Tuple.Set.equal
           (Tuple.Set.of_list (tuples a rel))
           (Tuple.Set.of_list (tuples b rel)))
       names_a

let pp ppf t =
  List.iter
    (fun rel ->
      Fmt.pf ppf "@[<v2>%s (%d tuples):@,%a@]@." rel (cardinality t rel)
        Fmt.(list ~sep:cut Tuple.pp)
        (tuples t rel))
    (relation_names t)
