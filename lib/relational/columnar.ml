(** Columnar interned relation storage.

    {!Instance} keeps boxed {!Value} tuples in hash sets; every scan
    and probe re-hashes whole tuples. This substrate holds the
    coverage engine's example stores, the operands the batched kernel
    and its planner read, and is the "do the algebra inside the
    engine" layout the SQL-for-SRL position paper argues for:

    - every {!Value} is {e interned} to a dense int id through {e one}
      dictionary per store ([intern] / [vals]), shared by every
      relation: an id means the same value in every relation, so
      equality anywhere in the engine — within a relation or across a
      join — is int equality, and a value is boxed once no matter how
      many tuples or relations mention it. Ids are dense ([0 ..
      dictionary_size - 1]) and never reclaimed;
    - each relation is laid out as {e per-position int columns}
      ([cols.(pos).(slot)] = value id of row [slot]);
    - every [(position, value-id)] pair keeps a {e posting list} — a
      sorted int array of the slots holding that value — which is both
      the secondary index and an exact statistic: [cardinality] is the
      live-row count, [distinct_count pos] the number of non-empty
      posting lists at [pos], both O(1) and exact, feeding the coverage
      planner directly;
    - {!select_project} evaluates a whole select-project query (the
      per-pattern scan of {!Algebra.semijoin_batch}) natively on ids:
      constants arrive as value ids and become posting-list
      intersections, repeated variables become int-column comparisons,
      projection and deduplication happen on value ids, the result is
      a list of {e id rows} (never decoded to {!Value}s), and results
      are memoized per generation — so a repeated pattern scan (the
      common case while learning: every candidate clause containing an
      atom re-scans that relation) costs zero row visits;
    - a memo entry also owns the kernel's operands built from its rows
      ({!operand}): the rows projected into a bag's elimination order
      and sorted, one per column permutation, and the set of packed
      semi-join keys, one per key column. Each is built the first time
      a kernel call asks for it, stored as one flat int array, and
      lives and dies with its entry, so it serves exactly one
      generation.

    Slots are append-only between compactions: [remove] tombstones a
    row (its postings are spliced, its [live] bit cleared) and never
    reuses the slot, so posting lists stay sorted by construction.
    Tombstones are reclaimed by {e compaction}, which renumbers the
    live slots in their current order: the old→new map is monotone, so
    posting lists stay sorted after an in-place remap and every scan
    enumerates rows in the same order as before. An insert that finds
    the columns full compacts instead of doubling when at most half
    the slots are live, and a remove compacts once tombstones
    outnumber [max live 16], so under churn a relation occupies at
    most [2 × max live 16] slots. Compaction is not a delta: the
    generation does not move, and the pushdown memo (which holds value
    ids, not slots) stays valid. Every effective mutation advances the
    generation, on which the pushdown memo is keyed.

    Rows are never decoded back to {!Value}s on the engine's paths;
    only the full scan {!tuples} (for printing and tests) decodes,
    counted under [columnar.rows_decoded]. Everything is instrumented
    under [columnar.*]. *)

module Obs = Castor_obs.Obs

let c_builds = Obs.Counter.create "columnar.builds"

let c_adds = Obs.Counter.create "columnar.adds"

let c_removes = Obs.Counter.create "columnar.removes"

let c_interned = Obs.Counter.create "columnar.interned"

let c_postings_scanned = Obs.Counter.create "columnar.postings_scanned"

let c_pushdowns = Obs.Counter.create "columnar.pushdowns"

let c_pushdown_hits = Obs.Counter.create "columnar.pushdown_hits"

let c_rows_decoded = Obs.Counter.create "columnar.rows_decoded"

let c_compactions = Obs.Counter.create "columnar.compactions"

exception Arity_mismatch of string

(* sorted slot ids; appends stay sorted because slots grow monotonically *)
type posting = { mutable ids : int array; mutable plen : int }

type crel = {
  arity : int;
  mutable cols : int array array;  (** [cols.(pos).(slot)] = value id *)
  mutable cap : int;  (** allocated slots *)
  mutable live : Bytes.t;  (** tombstone bitmap-as-bytes per slot *)
  mutable n_slots : int;  (** allocated slots incl. tombstones *)
  mutable count : int;  (** live rows *)
  postings : (int * int, posting) Hashtbl.t;  (** (pos, vid) -> slots *)
  distinct : int array;  (** per position: # non-empty postings *)
}

(** One memoized select-project result, valid for the one generation
    it was computed at, and the owner of the kernel operands built from
    its rows. *)
type scan = {
  mgen : int;
  mrows : int array list;
  mutable operands : (operand * int array) list;
      (** built on first request, see {!operand} *)
}

(** A kernel operand of a scan, stored as one flat int array:
    [Sorted perm] holds the rows permuted by [perm] ([perm.(k)] is the
    row column that goes to column [k]) and sorted lexicographically,
    one row after the other; [Keys c] holds the set of the rows'
    packed semi-join keys on column [c] (see {!Algebra}). *)
and operand = Sorted of int array | Keys of int

type t = {
  rels : (string, crel) Hashtbl.t;
  intern : (Value.t, int) Hashtbl.t;  (** the store's one dictionary *)
  mutable vals : Value.t array;  (** id -> value (append-only) *)
  mutable n_vals : int;
  mutable gen : int;  (** number of effective mutations *)
  memo :
    (string * (int * int) list * (int * int) list * int list, scan) Hashtbl.t;
}

let memo_cap = 8192

(** [create rels] builds an empty columnar database for relations
    given as [(name, arity)] pairs. *)
let create rels =
  Obs.Counter.incr c_builds;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, arity) ->
      if arity < 1 then invalid_arg "Columnar.create: arity must be >= 1";
      Hashtbl.replace tbl name
        {
          arity;
          cols = Array.make arity [||];
          cap = 0;
          live = Bytes.empty;
          n_slots = 0;
          count = 0;
          postings = Hashtbl.create 256;
          distinct = Array.make arity 0;
        })
    rels;
  {
    rels = tbl;
    intern = Hashtbl.create 256;
    vals = [||];
    n_vals = 0;
    gen = 0;
    memo = Hashtbl.create 64;
  }

let generation t = t.gen

let has_relation t rel = Hashtbl.mem t.rels rel

let relation_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.rels [] |> List.sort String.compare

let crel t rel =
  match Hashtbl.find_opt t.rels rel with
  | Some cr -> cr
  | None -> raise (Schema.Unknown_relation rel)

let arity t rel = (crel t rel).arity

(* ------------------------------------------------------------------ *)
(* Dictionary                                                          *)
(* ------------------------------------------------------------------ *)

let intern t v =
  match Hashtbl.find_opt t.intern v with
  | Some id -> id
  | None ->
      let id = t.n_vals in
      if id = Array.length t.vals then begin
        let grown = Array.make (max 16 (2 * id)) v in
        Array.blit t.vals 0 grown 0 id;
        t.vals <- grown
      end;
      t.vals.(id) <- v;
      t.n_vals <- id + 1;
      Hashtbl.replace t.intern v id;
      Obs.Counter.incr c_interned;
      id

(** [intern_id t v] — dictionary lookup without insertion; [None] when
    [v] was never stored in any relation of [t]. *)
let intern_id t v = Hashtbl.find_opt t.intern v

(** [intern_value t id] — the value a dense id decodes to.
    @raise Invalid_argument on an id the dictionary never issued. *)
let intern_value t id =
  if id < 0 || id >= t.n_vals then
    invalid_arg "Columnar.intern_value: unknown id";
  t.vals.(id)

(** Number of dictionary entries of [t] (ids are [0..size-1]); it only
    grows, since ids are never reclaimed. *)
let dictionary_size t = t.n_vals

(* ------------------------------------------------------------------ *)
(* Posting lists                                                       *)
(* ------------------------------------------------------------------ *)

let posting_append cr pos vid slot =
  match Hashtbl.find_opt cr.postings (pos, vid) with
  | Some p ->
      if p.plen = Array.length p.ids then begin
        let grown = Array.make (max 4 (2 * p.plen)) 0 in
        Array.blit p.ids 0 grown 0 p.plen;
        p.ids <- grown
      end;
      p.ids.(p.plen) <- slot;
      p.plen <- p.plen + 1
  | None ->
      Hashtbl.add cr.postings (pos, vid) { ids = [| slot |]; plen = 1 };
      cr.distinct.(pos) <- cr.distinct.(pos) + 1

let posting_remove cr pos vid slot =
  match Hashtbl.find_opt cr.postings (pos, vid) with
  | None -> ()
  | Some p ->
      (* binary search, then splice *)
      let lo = ref 0 and hi = ref (p.plen - 1) and at = ref (-1) in
      while !at < 0 && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let x = p.ids.(mid) in
        if x = slot then at := mid
        else if x < slot then lo := mid + 1
        else hi := mid - 1
      done;
      if !at >= 0 then begin
        Array.blit p.ids (!at + 1) p.ids !at (p.plen - !at - 1);
        p.plen <- p.plen - 1;
        if p.plen = 0 then begin
          Hashtbl.remove cr.postings (pos, vid);
          cr.distinct.(pos) <- cr.distinct.(pos) - 1
        end
      end

let posting_slots cr pos vid =
  match Hashtbl.find_opt cr.postings (pos, vid) with
  | Some p -> Some p
  | None -> None

(* intersection of two sorted slot arrays (the classic merge) *)
let inter (a : int array) alen (b : int array) blen =
  let out = Array.make (min alen blen) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < alen && !j < blen do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out.(!k) <- x;
      incr k;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  Obs.Counter.add c_postings_scanned (!i + !j);
  (out, !k)

(* ------------------------------------------------------------------ *)
(* Row access                                                          *)
(* ------------------------------------------------------------------ *)

let decode t cr slot : Tuple.t =
  Obs.Counter.incr c_rows_decoded;
  Array.init cr.arity (fun p -> t.vals.(cr.cols.(p).(slot)))

let is_live cr slot = Bytes.get cr.live slot = '\001'

(* the slot holding [tu], found through the smallest posting list of
   its interned values; None when absent (or some value un-interned) *)
let slot_of t cr (tu : Tuple.t) =
  let exception Missing in
  try
    let vids =
      Array.map
        (fun v ->
          match Hashtbl.find_opt t.intern v with
          | Some id -> id
          | None -> raise Missing)
        tu
    in
    let best = ref None in
    Array.iteri
      (fun p vid ->
        match posting_slots cr p vid with
        | None -> raise Missing
        | Some post -> (
            match !best with
            | Some (_, b) when b.plen <= post.plen -> ()
            | _ -> best := Some (p, post)))
      vids;
    match !best with
    | None -> None (* arity-0 relations cannot exist (arity >= 1) *)
    | Some (_, post) ->
        let found = ref None in
        (try
           for k = 0 to post.plen - 1 do
             let s = post.ids.(k) in
             let ok = ref true in
             for p = 0 to cr.arity - 1 do
               if cr.cols.(p).(s) <> vids.(p) then ok := false
             done;
             if !ok then begin
               found := Some s;
               raise Exit
             end
           done
         with Exit -> ());
        !found
  with Missing -> None

let mem t rel (tu : Tuple.t) =
  let cr = crel t rel in
  if Tuple.arity tu <> cr.arity then raise (Arity_mismatch rel);
  slot_of t cr tu <> None

(* Reclaim tombstoned slots: move every live row down to the next free
   slot, in slot order, and remap the posting lists through the
   (monotone) old→new map. Posting lists only ever hold live slots. *)
let compact cr =
  Obs.Counter.incr c_compactions;
  let remap = Array.make cr.n_slots (-1) in
  let next = ref 0 in
  for slot = 0 to cr.n_slots - 1 do
    if is_live cr slot then begin
      remap.(slot) <- !next;
      incr next
    end
  done;
  Array.iter
    (fun col ->
      for slot = 0 to cr.n_slots - 1 do
        if remap.(slot) >= 0 then col.(remap.(slot)) <- col.(slot)
      done)
    cr.cols;
  Bytes.fill cr.live 0 !next '\001';
  Bytes.fill cr.live !next (cr.n_slots - !next) '\000';
  cr.n_slots <- !next;
  Hashtbl.iter
    (fun _ p ->
      for k = 0 to p.plen - 1 do
        p.ids.(k) <- remap.(p.ids.(k))
      done)
    cr.postings

(** [add t rel tu] inserts a tuple: interns every value, appends one
    slot to each column and each posting list. [false] on duplicates
    (set semantics); an effective insert advances the generation.
    @raise Arity_mismatch if the tuple does not fit the sort. *)
let add t rel (tu : Tuple.t) =
  if mem t rel tu then false
  else begin
    let cr = crel t rel in
    (* columns full: reclaim the tombstones when at most half the
       slots are live, double the columns otherwise *)
    if cr.n_slots = cr.cap then begin
      if cr.cap > 0 && 2 * cr.count <= cr.cap then compact cr
      else begin
        let cap' = max 16 (2 * cr.cap) in
        cr.cols <-
          Array.map
            (fun col ->
              let grown = Array.make cap' 0 in
              Array.blit col 0 grown 0 cr.n_slots;
              grown)
            cr.cols;
        let live' = Bytes.make cap' '\000' in
        Bytes.blit cr.live 0 live' 0 cr.n_slots;
        cr.live <- live';
        cr.cap <- cap'
      end
    end;
    let slot = cr.n_slots in
    cr.n_slots <- slot + 1;
    Array.iteri
      (fun p v ->
        let vid = intern t v in
        cr.cols.(p).(slot) <- vid;
        posting_append cr p vid slot)
      tu;
    Bytes.set cr.live slot '\001';
    cr.count <- cr.count + 1;
    t.gen <- t.gen + 1;
    Obs.Counter.incr c_adds;
    true
  end

(** [remove t rel tu] tombstones a tuple's slot and splices it out of
    every posting list it occupied; dictionary entries are never
    reclaimed (ids stay dense and stable). [true] when present, in
    which case the generation advances. *)
let remove t rel (tu : Tuple.t) =
  let cr = crel t rel in
  if Tuple.arity tu <> cr.arity then raise (Arity_mismatch rel);
  match slot_of t cr tu with
  | None -> false
  | Some slot ->
      Array.iteri (fun p _ -> posting_remove cr p cr.cols.(p).(slot) slot) tu;
      Bytes.set cr.live slot '\000';
      cr.count <- cr.count - 1;
      if cr.n_slots - cr.count > max cr.count 16 then compact cr;
      t.gen <- t.gen + 1;
      Obs.Counter.incr c_removes;
      true

(** [tuples t rel] — full scan, newest slot first (the {!Instance}
    enumeration convention). *)
let tuples t rel =
  let cr = crel t rel in
  let out = ref [] in
  for slot = 0 to cr.n_slots - 1 do
    if is_live cr slot then out := decode t cr slot :: !out
  done;
  !out

let cardinality t rel = (crel t rel).count

(** [slots t rel] — slots [rel] occupies: its live rows plus the
    tombstones not yet compacted away. Compaction keeps it at most
    [2 × max (cardinality t rel) 16]. *)
let slots t rel = (crel t rel).n_slots

let size t = Hashtbl.fold (fun _ cr acc -> acc + cr.count) t.rels 0

(** [distinct_count t rel pos] — exact and O(1): the number of
    non-empty posting lists at column [pos]. *)
let distinct_count t rel pos =
  let cr = crel t rel in
  if pos < 0 || pos >= cr.arity then 0 else cr.distinct.(pos)

(* ------------------------------------------------------------------ *)
(* Engine pushdown: select-project with memoized results               *)
(* ------------------------------------------------------------------ *)

(** [select_project t rel ~consts ~eqs ~project] evaluates one whole
    pattern scan inside the engine:
    [π_project (σ_{consts ∧ eqs} rel)], deduplicated — where [consts]
    are [(column, value id)] equality predicates (ids from
    {!intern_id}), [eqs] are [(column, column)] equalities (repeated
    variables) and [project] lists the output columns. Selection on
    constants runs as a posting-list intersection (no row is visited
    that fails an indexed predicate); repeated-variable checks,
    projection and deduplication are int operations on the columns.
    Returns [(scan, examined)]: [rows scan] are {e id rows} — row [r]
    holds the value id of column [List.nth project k] at [r.(k)], never
    decoded — and [examined] counts the rows the engine actually
    visited, what the semi-join kernel reports as
    [algebra.semijoin.rows_scanned].

    Results are memoized per (query, generation): while the data does
    not move, a repeated scan returns the same [scan], materialized,
    with [examined = 0], and with it every kernel operand an earlier
    call built from its rows ({!operand}). Ids are never reclaimed, so
    compaction leaves every memoized result valid. Returns [None] only
    for an unknown relation or an out-of-range column. *)
let select_project t rel ~consts ~eqs ~project =
  match Hashtbl.find_opt t.rels rel with
  | None -> None
  | Some cr ->
      let in_range c = c >= 0 && c < cr.arity in
      if
        not
          (List.for_all (fun (c, _) -> in_range c) consts
          && List.for_all (fun (a, b) -> in_range a && in_range b) eqs
          && List.for_all in_range project)
      then None
      else begin
        Obs.Counter.incr c_pushdowns;
        let key = (rel, consts, eqs, project) in
        match Hashtbl.find_opt t.memo key with
        | Some e when e.mgen = generation t ->
            Obs.Counter.incr c_pushdown_hits;
            Some (e, 0)
        | _ ->
            let exception Empty in
            let candidates =
              try
                match consts with
                | [] ->
                    (* full scan of live slots *)
                    let out = Array.make cr.count 0 in
                    let k = ref 0 in
                    for slot = 0 to cr.n_slots - 1 do
                      if is_live cr slot then begin
                        out.(!k) <- slot;
                        incr k
                      end
                    done;
                    (out, !k)
                | _ ->
                    let posts =
                      List.map
                        (fun (c, vid) ->
                          match posting_slots cr c vid with
                          | None -> raise Empty
                          | Some p -> p)
                        consts
                    in
                    let sorted =
                      List.sort (fun a b -> compare a.plen b.plen) posts
                    in
                    (match sorted with
                    | [] -> assert false
                    | first :: rest ->
                        List.fold_left
                          (fun (acc, n) p -> inter acc n p.ids p.plen)
                          (first.ids, first.plen) rest)
              with Empty -> ([||], 0)
            in
            let slots, n = candidates in
            let proj = Array.of_list (List.map (fun c -> cr.cols.(c)) project) in
            let seen = Hashtbl.create 64 in
            let rows = ref [] in
            for k = 0 to n - 1 do
              let slot = slots.(k) in
              if List.for_all (fun (a, b) -> cr.cols.(a).(slot) = cr.cols.(b).(slot)) eqs
              then begin
                let row = Array.map (fun col -> col.(slot)) proj in
                if not (Hashtbl.mem seen row) then begin
                  Hashtbl.replace seen row ();
                  rows := row :: !rows
                end
              end
            done;
            let rows = List.rev !rows in
            if Hashtbl.length t.memo >= memo_cap then Hashtbl.reset t.memo;
            let e = { mgen = generation t; mrows = rows; operands = [] } in
            Hashtbl.replace t.memo key e;
            Some (e, n)
      end

(** The id rows of a {!select_project} result. *)
let rows s = s.mrows

(** [operand s op build] — the kernel operand [op] of scan [s]:
    [build (rows s)] the first time it is asked for, then the stored
    array, which lives and dies with [s]'s memo entry. The flag is
    [true] when the operand was reused.

    An entry serves one generation, so an operand never outlives the
    rows it was built from. A packed key [eid * dictionary_size + v]
    stays valid for as long, too: the dictionary only grows in an
    effective {!add}, which moves the generation. *)
let operand s op build =
  match List.assoc_opt op s.operands with
  | Some a -> (a, true)
  | None ->
      let a = build s.mrows in
      s.operands <- (op, a) :: s.operands;
      (a, false)

(* ------------------------------------------------------------------ *)
(* Loading and checking                                                *)
(* ------------------------------------------------------------------ *)

(** [of_instance inst] loads a whole {!Instance} (a snapshot — its
    generation moves independently of [inst]'s). *)
let of_instance inst =
  let schema = Instance.schema inst in
  let rels =
    List.map
      (fun (r : Schema.relation) ->
        (r.Schema.rname, List.length r.Schema.attrs))
      schema.Schema.relations
  in
  let t = create rels in
  List.iter
    (fun (rel, _) ->
      List.iter (fun tu -> ignore (add t rel tu)) (List.rev (Instance.tuples inst rel)))
    rels;
  t

(** [consistent t] checks every derived structure against a
    from-scratch rebuild of the live rows: postings hold exactly the
    live slots of their (position, value), sorted; [distinct] counts
    the non-empty postings; [count] matches the live bitmap; every
    column holds issued ids; the store's one dictionary round-trips. *)
let consistent t =
  Hashtbl.fold
    (fun _rel cr acc ->
      acc
      &&
      let live_slots = ref [] in
      for slot = cr.n_slots - 1 downto 0 do
        if is_live cr slot then live_slots := slot :: !live_slots
      done;
      let expected = Hashtbl.create 64 in
      List.iter
        (fun slot ->
          for p = 0 to cr.arity - 1 do
            let key = (p, cr.cols.(p).(slot)) in
            Hashtbl.replace expected key
              (slot :: Option.value ~default:[] (Hashtbl.find_opt expected key))
          done)
        !live_slots;
      cr.count = List.length !live_slots
      && Hashtbl.length expected = Hashtbl.length cr.postings
      && Hashtbl.fold
           (fun ((_, vid) as key) slots ok ->
             ok && vid >= 0 && vid < t.n_vals
             &&
             match Hashtbl.find_opt cr.postings key with
             | Some p ->
                 Array.to_list (Array.sub p.ids 0 p.plen)
                 = List.sort compare slots
             | None -> false)
           expected true
      && Array.for_all Fun.id
           (Array.init cr.arity (fun p ->
                cr.distinct.(p)
                = Hashtbl.fold
                    (fun (q, _) _ n -> if q = p then n + 1 else n)
                    cr.postings 0)))
    t.rels true
  && Hashtbl.fold
       (fun v id ok -> ok && id < t.n_vals && Value.equal t.vals.(id) v)
       t.intern true
  && Hashtbl.length t.intern = t.n_vals

let pp ppf t =
  Fmt.pf ppf "%d dictionary entries@." (dictionary_size t);
  List.iter
    (fun rel ->
      Fmt.pf ppf "@[<v2>%s (%d tuples):@,%a@]@." rel (cardinality t rel)
        Fmt.(list ~sep:cut Tuple.pp)
        (tuples t rel))
    (relation_names t)
