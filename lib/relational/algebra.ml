(** Relational algebra over {!Instance}: projection and natural join.

    These are the two operators that define the paper's decomposition
    (projection) and composition (natural join) Horn transformations
    (Section 4).

    The second half is the batched semi-join coverage kernel
    ({!semijoin_batch}): one Yannakakis program over a {!Columnar}
    example store answers a whole batch of example-coverage questions,
    reading each pattern once through the engine's select-project
    pushdown. The kernel runs on the store's own representation from
    start to finish: pattern constants are looked up once in the
    store's one dictionary, scans return id rows, and semi-joins,
    leapfrog seeks and the final example-id intersection compare ints
    — no row is ever decoded back to {!Value}s. A semi-join key of the
    example id plus at most one shared variable (the common case) packs
    into one int, [eid * dictionary_size + var], which is injective
    because ids are dense dictionary indexes; wider keys hash the id
    row.

    The memoized scan of a pattern owns the operands built from it
    ({!Columnar.operand}): a wide bag reads each member as the scan's
    rows sorted in the bag's elimination order, and a semi-join reads
    the set of a child's packed keys, whenever the child still holds
    its scan's rows (a leaf bag, unfiltered). Both are built once per
    memoized scan, counted under [algebra.semijoin.operands_built] and
    [.operands_reused]; a parent that a semi-join has filtered, and a
    leapfrog bag, build their own. *)

(** [project inst rel attrs] computes [π_attrs(inst.rel)] as a
    duplicate-free tuple list in the order of [attrs]. *)
let project inst rel attrs =
  let r = Schema.find_relation (Instance.schema inst) rel in
  let pos = Schema.positions r attrs in
  let seen = ref Tuple.Set.empty in
  List.rev
    (List.fold_left
       (fun acc tu ->
         let p = Tuple.project pos tu in
         if Tuple.Set.mem p !seen then acc
         else begin
           seen := Tuple.Set.add p !seen;
           p :: acc
         end)
       [] (Instance.tuples inst rel))

(** A named intermediate relation: attribute list plus tuples. Natural
    join is defined over these so multi-way joins can be folded. *)
type table = { tattrs : Schema.attribute list; trows : Tuple.t list }

let table_of_relation inst rel =
  let r = Schema.find_relation (Instance.schema inst) rel in
  { tattrs = r.Schema.attrs; trows = Instance.tuples inst rel }

(** [natural_join a b] joins on all shared attribute names. The result
    keeps [a]'s attributes followed by [b]'s non-shared attributes.
    Raises [Invalid_argument] when the relations share no attribute
    (the paper restricts natural join to avoid Cartesian products). *)
let natural_join a b =
  let shared =
    List.filter
      (fun (x : Schema.attribute) ->
        List.exists (fun (y : Schema.attribute) -> String.equal x.aname y.aname) b.tattrs)
      a.tattrs
  in
  if shared = [] then invalid_arg "natural_join: no shared attributes";
  let pos_in attrs name =
    let rec go i = function
      | [] -> raise Not_found
      | (x : Schema.attribute) :: _ when String.equal x.aname name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 attrs
  in
  let a_pos = List.map (fun (x : Schema.attribute) -> pos_in a.tattrs x.aname) shared in
  let b_pos = List.map (fun (x : Schema.attribute) -> pos_in b.tattrs x.aname) shared in
  let b_extra =
    List.filter
      (fun (x : Schema.attribute) ->
        not (List.exists (fun (y : Schema.attribute) -> String.equal x.aname y.aname) shared))
      b.tattrs
  in
  let b_extra_pos = List.map (fun (x : Schema.attribute) -> pos_in b.tattrs x.aname) b_extra in
  (* hash join keyed on the shared projection of b *)
  let tbl = Hashtbl.create (List.length b.trows) in
  List.iter
    (fun tu ->
      let key = Tuple.project b_pos tu in
      let h = Tuple.hash key in
      let existing = Option.value ~default:[] (Hashtbl.find_opt tbl h) in
      Hashtbl.replace tbl h ((key, tu) :: existing))
    b.trows;
  let rows =
    List.concat_map
      (fun ta ->
        let key = Tuple.project a_pos ta in
        match Hashtbl.find_opt tbl (Tuple.hash key) with
        | None -> []
        | Some candidates ->
            List.filter_map
              (fun (k, tb) ->
                if Tuple.equal k key then
                  Some
                    (Array.append ta
                       (Array.of_list (List.map (fun p -> tb.(p)) b_extra_pos)))
                else None)
              candidates)
      a.trows
  in
  (* dedup *)
  let seen = ref Tuple.Set.empty in
  let rows =
    List.filter
      (fun r ->
        if Tuple.Set.mem r !seen then false
        else begin
          seen := Tuple.Set.add r !seen;
          true
        end)
      rows
  in
  { tattrs = a.tattrs @ b_extra; trows = rows }

(** [natural_join_all tables] folds {!natural_join} left to right. *)
let natural_join_all = function
  | [] -> invalid_arg "natural_join_all: empty"
  | t :: ts -> List.fold_left natural_join t ts

(** [select tbl pred] keeps the rows satisfying [pred]. *)
let select tbl pred = { tbl with trows = List.filter pred tbl.trows }

(** [reorder tbl attrs] permutes the columns of [tbl] to follow
    [attrs] (which must be a permutation of a subset of its columns,
    duplicates removed). *)
let reorder tbl attrs =
  let pos name =
    let rec go i = function
      | [] -> raise Not_found
      | (x : Schema.attribute) :: _ when String.equal x.Schema.aname name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 tbl.tattrs
  in
  let ps = List.map pos attrs in
  {
    tattrs = List.map (fun p -> List.nth tbl.tattrs p) ps;
    trows = List.map (fun r -> Tuple.project ps r) tbl.trows;
  }

(* ------------------------------------------------------------------ *)
(* Batched semi-join kernel over the columnar example store            *)
(* ------------------------------------------------------------------ *)

module Obs = Castor_obs.Obs

let c_batches = Obs.Counter.create "algebra.semijoin.batches"

let c_batch_examples = Obs.Counter.create "algebra.semijoin.examples"

let c_rows_scanned = Obs.Counter.create "algebra.semijoin.rows_scanned"

let c_semijoins = Obs.Counter.create "algebra.semijoin.semijoins"

let c_wide_bags = Obs.Counter.create "algebra.semijoin.wide_bags"

let c_bag_rows = Obs.Counter.create "algebra.semijoin.bag_rows"

let c_leapfrog_seeks = Obs.Counter.create "algebra.semijoin.leapfrog_seeks"

let c_operands_built =
  Obs.Counter.create
    ~help:
      "kernel operands (sorted leapfrog operands, semi-join key sets) built \
       from a memoized pattern scan and stored with it"
    "algebra.semijoin.operands_built"

let c_operands_reused =
  Obs.Counter.create
    ~help:
      "kernel operands served from a memoized pattern scan's entry instead \
       of being rebuilt"
    "algebra.semijoin.operands_reused"

let span_batch = Obs.Span.create "algebra.semijoin.batch"

(** One literal of a conjunctive pattern, matched against a stored
    relation. Argument [j] of the pattern corresponds to column
    [j + 1] of the stored relation: by convention column 0 of every
    relation in the store carries the {e example id} (an [Int]). *)
type arg = Avar of string | Aconst of Value.t

type pattern = { prel : string; pargs : arg array }

(** Distinct variables of a pattern, in first-occurrence order. *)
let pattern_vars p =
  Array.fold_left
    (fun acc a ->
      match a with
      | Avar v when not (List.mem v acc) -> v :: acc
      | _ -> acc)
    [] p.pargs
  |> List.rev

(* An intermediate semi-join operand of id rows: row.(0) is the
   dictionary id of the example id and row.(k + 1) the id bound to the
   k-th variable of [svars]. [src] is the memoized scan whose rows
   [srows] still are, exactly: a pattern scan until a semi-join
   filters it, [None] from then on and for a leapfrog bag. *)
type sj_table = {
  svars : string list;
  mutable srows : int array list;
  mutable src : Columnar.scan option;
}

(* Operand [op] of [tbl]: kept in its scan's memo entry while [tbl]
   holds that scan's rows, built afresh otherwise. A memo entry serves
   one store generation, so a kept operand never outlives the rows it
   was built from. Nor can a kept key set's packing go stale: the
   dictionary, and with it [width], only grows inside an effective
   [Columnar.add], which moves the generation. *)
let operand tbl op build =
  match tbl.src with
  | None -> build tbl.srows
  | Some s ->
      let a, reused = Columnar.operand s op build in
      Obs.Counter.incr (if reused then c_operands_reused else c_operands_built);
      a

(* Scan one pattern against the example store. The pattern scan is
   one select-project query inside the columnar engine: σ on the
   constants and repeated variables, π to (eid, distinct variables),
   deduplicated — posting-list intersections instead of
   scan-and-filter, memoized across repeated scans. [rows_scanned]
   counts the stored rows the engine actually visited. A relation the
   store lacks, a pattern of the wrong arity, or a constant the
   store's dictionary lacks matches nothing. *)
let scan_pattern (store : Columnar.t) (p : pattern) =
  let vars = pattern_vars p in
  let src =
    if
      not
        (Columnar.has_relation store p.prel
        && Columnar.arity store p.prel = Array.length p.pargs + 1)
    then None
    else begin
      let exception Absent in
      try
        let consts = ref [] and eqs = ref [] in
        let first_pos = Hashtbl.create 8 in
        Array.iteri
          (fun j a ->
            match a with
            | Aconst v -> (
                match Columnar.intern_id store v with
                | Some id -> consts := (j + 1, id) :: !consts
                | None -> raise Absent)
            | Avar x -> (
                match Hashtbl.find_opt first_pos x with
                | None -> Hashtbl.add first_pos x (j + 1)
                | Some p0 -> eqs := (p0, j + 1) :: !eqs))
          p.pargs;
        let project = 0 :: List.map (Hashtbl.find first_pos) vars in
        match
          Columnar.select_project store p.prel ~consts:(List.rev !consts)
            ~eqs:(List.rev !eqs) ~project
        with
        | Some (scan, examined) ->
            Obs.Counter.add c_rows_scanned examined;
            Some scan
        | None -> None
      with Absent -> None
    end
  in
  let srows = match src with Some s -> Columnar.rows s | None -> [] in
  { svars = vars; srows; src }

let var_col tbl v =
  let rec go i = function
    | [] -> raise Not_found
    | x :: _ when String.equal x v -> i + 1
    | _ :: tl -> go (i + 1) tl
  in
  go 0 tbl.svars

(* A set of non-negative ints in one flat array: open addressing with
   linear probing over a power-of-two table at most half full, -1
   marking a free slot. *)
let home set x =
  let h = x * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land (Array.length set - 1)

let probe set x =
  let mask = Array.length set - 1 in
  let i = ref (home set x) in
  while set.(!i) >= 0 && set.(!i) <> x do
    i := (!i + 1) land mask
  done;
  !i

let mem_set set x = set.(probe set x) = x

(* [x] into [set]; [true] when it was not there yet *)
let insert set x =
  let i = probe set x in
  set.(i) < 0
  && begin
       set.(i) <- x;
       true
     end

(* The set of the ints [iter] yields, doubled whenever it gets half
   full, so its size follows the distinct ints, not how many [iter]
   yields. *)
let int_set (iter : (int -> unit) -> unit) =
  let set = ref (Array.make 16 (-1)) and n = ref 0 in
  iter (fun x ->
      if insert !set x then begin
        incr n;
        if 2 * !n > Array.length !set then begin
          let grown = Array.make (2 * Array.length !set) (-1) in
          Array.iter (fun y -> if y >= 0 then ignore (insert grown y)) !set;
          set := grown
        end
      end);
  !set

(* The set of the example ids of [tbl]'s rows ([c = 0]), or of their
   example id and id on column [c] packed into [eid * width + id]. Ids
   are dense dictionary indexes below [width], so the packing is
   injective. *)
let key_set ~width tbl c =
  operand tbl (Columnar.Keys c) (fun rows ->
      int_set (fun add ->
          List.iter
            (fun (r : int array) ->
              add (if c = 0 then r.(0) else (r.(0) * width) + r.(c)))
            rows))

(* parent ⋉ child on the example id plus their shared variables. The
   key of the example id plus at most one shared variable packs into
   one int (the common case), and the child's key set comes from its
   scan's memo entry while the child is an unfiltered pattern scan;
   wider keys hash the projected id row. The parent is filtered either
   way, so it no longer holds its scan's rows. *)
let semijoin ~width parent child =
  Obs.Counter.incr c_semijoins;
  let shared = List.filter (fun v -> List.mem v parent.svars) child.svars in
  (match shared with
  | [] ->
      let keys = key_set ~width child 0 in
      parent.srows <- List.filter (fun r -> mem_set keys r.(0)) parent.srows
  | [ v ] ->
      let keys = key_set ~width child (var_col child v) and p = var_col parent v in
      parent.srows <-
        List.filter (fun r -> mem_set keys ((r.(0) * width) + r.(p))) parent.srows
  | _ ->
      let cols tbl = Array.of_list (0 :: List.map (var_col tbl) shared) in
      let project pos (r : int array) = Array.map (fun i -> r.(i)) pos in
      let cpos = cols child and ppos = cols parent in
      let keys = Hashtbl.create (List.length child.srows) in
      List.iter (fun r -> Hashtbl.replace keys (project cpos r) ()) child.srows;
      parent.srows <-
        List.filter (fun r -> Hashtbl.mem keys (project ppos r)) parent.srows);
  parent.src <- None

(* ------------------------------------------------------------------ *)
(* Worst-case-optimal bag materialization                              *)
(* ------------------------------------------------------------------ *)

(* A leapfrog operand: its rows [w] ids wide, sorted lexicographically
   and laid out one after the other in [mat]; [col_at.(d)] is the
   column holding the variable eliminated at depth [d], or -1. *)
type sorted_op = { mat : int array; w : int; col_at : int array }

(* [lower_bound]/[upper_bound]: first row index in [lo, hi) of [o]
   whose id at column [col] is >= v (resp. > v). Every column before
   [col] is constant within [lo, hi), so column [col] is sorted
   there. *)
let lower_bound o col lo hi (v : int) =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if o.mat.((mid * o.w) + col) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound o col lo hi (v : int) =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if o.mat.((mid * o.w) + col) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

(* lexicographic order on id rows of one operand (equal lengths) *)
let compare_rows (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* [rows] with row column [perm.(k)] moved to column [k], sorted
   lexicographically and laid out flat *)
let sorted_rows perm rows =
  let w = Array.length perm in
  let mat =
    Array.of_list
      (List.map (fun (r : int array) -> Array.map (fun i -> r.(i)) perm) rows)
  in
  Array.sort compare_rows mat;
  let flat = Array.make (Array.length mat * w) 0 in
  Array.iteri (fun k r -> Array.blit r 0 flat (k * w) w) mat;
  flat

(* Materialize one multi-edge bag of a decomposition: the natural join
   of its member tables, computed by a leapfrog-style worst-case-
   optimal generic join. Variables are eliminated in a fixed global
   order — the example id first, then the bag's variables by first
   occurrence — and the candidate ids of each variable are obtained
   by sorted-array intersection over every member containing it: the
   member with the fewest remaining rows leads, the others are probed
   by binary search and narrow their live row range as the partial
   assignment grows. Each member is read as its rows projected to
   (eid, own vars in elimination order) and sorted, so that the
   lexicographic order agrees with the elimination order; a member
   that is a pattern scan keeps that operand in its memo entry, one
   per column permutation. Rows sort by id, not by value: the set of
   rows emitted, and the seeks made, do not depend on the order. Each
   emitted row is a full distinct assignment of (eid, bag variables),
   so the result is itself a valid semi-join operand. *)
let leapfrog_bag (tables : sj_table list) =
  let bag_vars =
    List.fold_left
      (fun acc t ->
        List.fold_left
          (fun acc v -> if List.mem v acc then acc else v :: acc)
          acc t.svars)
      [] tables
    |> List.rev
  in
  let n_depths = 1 + List.length bag_vars in
  let depth_of = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace depth_of v (i + 1)) bag_vars;
  let ops =
    Array.of_list
      (List.map
         (fun t ->
           let tv =
             List.sort
               (fun a b ->
                 compare (Hashtbl.find depth_of a) (Hashtbl.find depth_of b))
               t.svars
           in
           let col_at = Array.make n_depths (-1) in
           col_at.(0) <- 0;
           List.iteri (fun k v -> col_at.(Hashtbl.find depth_of v) <- k + 1) tv;
           let perm = Array.of_list (0 :: List.map (var_col t) tv) in
           let mat = operand t (Columnar.Sorted perm) (sorted_rows perm) in
           { mat; w = Array.length perm; col_at })
         tables)
  in
  let m = Array.length ops in
  let cur = Array.make n_depths 0 in
  let out = ref [] in
  let rec enum d (ranges : (int * int) array) =
    if d = n_depths then begin
      Obs.Counter.incr c_bag_rows;
      out := Array.copy cur :: !out
    end
    else begin
      let active = ref [] in
      for k = m - 1 downto 0 do
        if ops.(k).col_at.(d) >= 0 then active := k :: !active
      done;
      let active = !active in
      let lead =
        List.fold_left
          (fun best k ->
            let lo, hi = ranges.(k) in
            match best with
            | Some (_, bn) when bn <= hi - lo -> best
            | _ -> Some (k, hi - lo))
          None active
      in
      match lead with
      | None ->
          (* unreachable: the example id makes every member active at
             depth 0 and every bag variable occurs in some member *)
          assert false
      | Some (lead, _) ->
          let o = ops.(lead) in
          let c = o.col_at.(d) in
          let lo, hi = ranges.(lead) in
          let i = ref lo in
          while !i < hi do
            let v = o.mat.((!i * o.w) + c) in
            let stop = upper_bound o c !i hi v in
            Obs.Counter.incr c_leapfrog_seeks;
            let ranges' = Array.copy ranges in
            ranges'.(lead) <- (!i, stop);
            let ok = ref true in
            List.iter
              (fun k ->
                if !ok && k <> lead then begin
                  let o' = ops.(k) in
                  let klo, khi = ranges.(k) in
                  let c' = o'.col_at.(d) in
                  let a = lower_bound o' c' klo khi v in
                  let b = upper_bound o' c' a khi v in
                  Obs.Counter.incr c_leapfrog_seeks;
                  if a >= b then ok := false else ranges'.(k) <- (a, b)
                end)
              active;
            if !ok then begin
              cur.(d) <- v;
              enum (d + 1) ranges'
            end;
            i := stop
          done
    end
  in
  enum 0 (Array.init m (fun k -> (0, Array.length ops.(k).mat / ops.(k).w)));
  { svars = bag_vars; srows = List.rev !out; src = None }

(** [semijoin_batch ?decomposition store ~patterns ~eids] answers,
    for each of the [k] example ids in [eids], whether the conjunctive
    [patterns] have at least one satisfying assignment among the
    example's stored tuples — k boolean coverage answers from one
    Yannakakis semi-join program, instead of k independent subsumption
    searches.

    Every pattern is scanned once for the whole batch, as one
    {!Columnar.select_project} query against the example store.

    The pattern hypergraph (one hyperedge of variables per pattern)
    need not be acyclic: the program runs over a generalized hypertree
    decomposition ({!Hypergraph.decompose}). A singleton bag reuses its
    pattern scan; a bag merging a cyclic core is materialized by the
    worst-case-optimal join above. The bottom-up Yannakakis pass then
    runs over the bag tree — prepending the example-id column to every
    edge keeps it exact per example — and disconnected components are
    joined by intersecting the surviving example-id sets of their
    roots. [decomposition] supplies a precomputed (possibly memoized)
    decomposition of exactly [List.map pattern_vars patterns]; it is
    rebuilt here when absent. *)
let semijoin_batch ?decomposition (store : Columnar.t)
    ~(patterns : pattern list) ~(eids : int array) =
  Obs.Span.with_span span_batch @@ fun () ->
  Obs.Counter.incr c_batches;
  Obs.Counter.add c_batch_examples (Array.length eids);
  match patterns with
  | [] -> Array.make (Array.length eids) true
  | _ when Array.length eids = 0 -> [||]
  | _ ->
      let decomp =
        match decomposition with
        | Some d -> d
        | None -> Hypergraph.decompose (List.map pattern_vars patterns)
      in
      let tables = Array.map (scan_pattern store) (Array.of_list patterns) in
      let bag_tables =
        Array.map
          (fun members ->
            match members with
            | [ e ] -> tables.(e)
            | members ->
                Obs.Counter.incr c_wide_bags;
                leapfrog_bag (List.map (fun e -> tables.(e)) members))
          decomp.Hypergraph.bags
      in
      (* [width] bounds every id, so packed keys stay below
         [width * width], inside an int *)
      let width = Columnar.dictionary_size store in
      assert (width <= 1 lsl 30);
      let root_sets = ref [] in
      List.iter
        (fun (b, parent) ->
          match parent with
          | Some f -> semijoin ~width bag_tables.(f) bag_tables.(b)
          | None -> root_sets := key_set ~width bag_tables.(b) 0 :: !root_sets)
        decomp.Hypergraph.forest;
      let sets = !root_sets in
      (* an example id the dictionary lacks has no stored fact, so only
         an empty conjunction of roots covers it *)
      Array.map
        (fun eid ->
          match Columnar.intern_id store (Value.int eid) with
          | Some id -> List.for_all (fun set -> mem_set set id) sets
          | None -> sets = [])
        eids
