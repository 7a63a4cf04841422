(** θ-subsumption engine (the role Resumer2 plays in the paper's
    implementation, Section 7.5.3).

    Clause [C] θ-subsumes clause [D] iff there is a substitution θ with
    [Cθ ⊆ D] (literal-set inclusion) and the heads unified by θ. [D]'s
    variables are treated as frozen constants, so the same engine
    answers both coverage tests (where [D] is a ground bottom clause)
    and clause-reduction tests (where [D] shares variables with [C]).

    The engine follows the constraint-satisfaction view of subsumption
    (Maloberti & Sebag's Django; Kuželka & Železný's Resumer), and it
    runs on integers only — coverage testing dominates learning time
    (Section 7.5.3):

    - a {e prepared} target ({!prepare}) interns [D]'s terms, its
      constants and its frozen variables alike, into dense ids local to
      [D], and keeps its body as rows of ids grouped by relation and
      arity;
    - a {e compiled} pattern ({!compile}) numbers [C]'s variables into
      binding slots and lists its constants. It is immutable and holds
      nothing of any target, so one compiled pattern is tested against
      many targets (coverage compiles once per call) and can be shared
      with worker domains. A test binds only what depends on the
      target: the id of each of the pattern's constants and the
      candidate rows of each literal;
    - candidate rows are pruned by arc consistency over variable
      domains, each a bitset over the target's ids, which refutes most
      non-subsumptions in polynomial time;
    - the surviving candidates are searched by backtracking in a
      static most-bound-first literal order, with forward checking of
      variable-sharing neighbors, on an int binding array with an undo
      trail.

    Ids are local to each target rather than those of the example
    store: store ids are global and sparse, so a domain could not be a
    word or two of bits, and clause reduction ({!Minimize}) and
    {!equivalent} test clauses that live in no store.

    A step budget bounds pathological instances. The clause-level
    calls ({!subsumes}, {!subsuming_subst}, {!equivalent}, ...) answer
    conservatively when it runs out: "does not subsume", which is what
    clause reduction ({!Minimize}) wants. {!subsumes_compiled} and
    {!subsumes_prepared} report the exhaustion instead ([None]), so
    coverage testing can finish the search without a budget and stay
    exact (see {!Castor_ilp.Coverage}). Every clause-level call is a
    {!compile} and a {!prepare} followed by one test, so all calls
    share one search path. *)

module Obs = Castor_obs.Obs

(* Observability of the engine (Section 7.5.3: subsumption is the
   learning hot path). [steps] is total backtracking-search steps;
   [budget_exhausted] counts searches the step budget cut short — a
   conservative "does not subsume" at clause level, a budget-free
   re-run in coverage — which any perf work on the engine must watch. *)
let c_calls = Obs.Counter.create "logic.subsume.calls"

let c_steps = Obs.Counter.create "logic.subsume.steps"

let c_budget_exhausted = Obs.Counter.create "logic.subsume.budget_exhausted"

let c_ac_refuted = Obs.Counter.create "logic.subsume.ac_refuted"

(* Candidate literals examined while computing the arc-consistency
   fixpoint. AC refutes most non-subsumptions before [c_steps] moves
   at all, so its scan work is the engine's real cost on refuted
   probes; perf comparisons against the set-at-a-time kernel must add
   this to [c_steps] or they credit AC exits as free. *)
let c_ac_scans = Obs.Counter.create "logic.subsume.ac_scans"

(* Nothing increments this counter. It stays registered, always 0,
   because the per-layer benchmark ([perfbench]) reads it for its
   [logic.subsume.restarts] metric, as {!Castor_relational.Store.c_lookups}
   stays for [relational.store.lookups]. Delete it once that metric is
   repointed at [ilp.coverage.budget_fallbacks]. *)
let c_restarts = Obs.Counter.create "logic.subsume.restarts"

exception Budget_exhausted

exception Refuted

(* ---------------------------------------------------------------- *)
(* Prepared targets                                                   *)
(* ---------------------------------------------------------------- *)

module Ids = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal

  let hash = Hashtbl.hash
end)

module Rels = Hashtbl.Make (String)

(* The body literals of one relation and arity: [count] rows of
   [arity] ids each, in one array. *)
type group = { rel : string; arity : int; count : int; rows : int array }

(** A subsumption target [D] prepared once for many tests. Coverage
    tests the same ground bottom clause against thousands of
    candidates, so it keeps one per example instead of interning the
    clause on every call. It keeps no hash table: a test finds its
    literals' groups by binary search, and its few constants by a scan
    of [terms]. A prepared target is immutable and safe to share across
    domains. *)
type prepared = {
  terms : Term.t array;
      (** [D]'s distinct terms in order of first occurrence, head
          first; a term's id is its index *)
  head_rel : string;
  head : int array;  (** the head's argument ids *)
  groups : group array;
      (** sorted by relation, then arity; rows run from the last body
          literal to the first, the order the search tries candidates
          in *)
}

let compare_group rel arity g =
  let c = String.compare rel g.rel in
  if c <> 0 then c else Int.compare arity g.arity

(** [prepare d] interns [d]'s terms and groups its body by relation and
    arity. *)
let prepare (d : Clause.t) =
  let ids = Ids.create 64 in
  let terms = ref [] in
  let id t =
    match Ids.find_opt ids t with
    | Some i -> i
    | None ->
        let i = Ids.length ids in
        Ids.add ids t i;
        terms := t :: !terms;
        i
  in
  let head = Array.map id d.Clause.head.Atom.args in
  let rows = Rels.create 16 in
  List.iter
    (fun (a : Atom.t) ->
      let r = Array.map id a.Atom.args in
      match Rels.find_opt rows a.Atom.rel with
      | Some rs -> rs := r :: !rs
      | None -> Rels.add rows a.Atom.rel (ref [ r ]))
    d.Clause.body;
  let groups =
    Rels.fold
      (fun rel { contents = rs } acc ->
        List.sort_uniq Int.compare (List.map Array.length rs)
        |> List.fold_left
             (fun acc arity ->
               let g = List.filter (fun r -> Array.length r = arity) rs in
               { rel; arity; count = List.length g; rows = Array.concat g } :: acc)
             acc)
      rows []
    |> Array.of_list
  in
  Array.sort (fun a b -> compare_group a.rel a.arity b) groups;
  {
    terms = Array.of_list (List.rev !terms);
    head_rel = d.Clause.head.Atom.rel;
    head;
    groups;
  }

(** [leave_out p d] is, for [p = prepare d], the function that maps a
    body index [i] to [p] with the row of [d]'s [i]-th body literal
    left out. The result answers every test like [prepare] of [d]
    without that literal, with the same candidates in the same order;
    only its ids may differ, since [terms] keeps every term of [d]. A
    group left empty is dropped, so a literal of that relation is
    still refuted before arc consistency. The rows' positions are
    computed once, here; each call copies one group. Clause reduction
    ({!Minimize}) tests a clause against each of its one-literal-
    shorter versions this way. *)
let leave_out (p : prepared) (d : Clause.t) =
  let group_of (a : Atom.t) =
    let arity = Array.length a.Atom.args in
    let rec find lo hi =
      let mid = (lo + hi) / 2 in
      let c = compare_group a.Atom.rel arity p.groups.(mid) in
      if c = 0 then mid else if c < 0 then find lo mid else find (mid + 1) hi
    in
    find 0 (Array.length p.groups)
  in
  (* a group's rows run from the last body literal to the first *)
  let body = Array.of_list d.Clause.body in
  let seen = Array.make (Array.length p.groups) 0 in
  let at = Array.make (Array.length body) (0, 0) in
  for i = Array.length body - 1 downto 0 do
    let g = group_of body.(i) in
    at.(i) <- (g, seen.(g));
    seen.(g) <- seen.(g) + 1
  done;
  fun i ->
    let g, r = at.(i) in
    let grp = p.groups.(g) in
    let groups =
      if grp.count = 1 then
        Array.append (Array.sub p.groups 0 g)
          (Array.sub p.groups (g + 1) (Array.length p.groups - g - 1))
      else begin
        let a = grp.arity in
        let rows = Array.make ((grp.count - 1) * a) 0 in
        Array.blit grp.rows 0 rows 0 (r * a);
        Array.blit grp.rows ((r + 1) * a) rows (r * a) ((grp.count - 1 - r) * a);
        let groups = Array.copy p.groups in
        groups.(g) <- { grp with count = grp.count - 1; rows };
        groups
      end
    in
    { p with groups }

(* ---------------------------------------------------------------- *)
(* Compiled patterns                                                  *)
(* ---------------------------------------------------------------- *)

(* A compiled argument [a] is the variable slot [a] when [a >= 0], and
   the pattern's constant [consts.(lnot a)] otherwise. *)
type lit = {
  rel : string;
  args : int array;
  vset : int array;  (** the literal's variable slots, sorted, distinct *)
}

(** A clause [C] compiled for testing against any number of targets:
    variables numbered into slots (head first, then body by first
    occurrence), constants listed, and the body literals' argument
    shapes. Immutable and safe to share across domains. *)
type compiled = {
  chead_rel : string;
  chead : int array;
  lits : lit array;
  consts : Term.t array;
  names : string array;  (** slot → variable name *)
}

(** [compile c] compiles the clause side of a test once. *)
let compile (c : Clause.t) =
  let slots = Hashtbl.create 16 and names = ref [] in
  let consts = Ids.create 4 and cs = ref [] in
  let code = function
    | Term.Var v -> (
        match Hashtbl.find_opt slots v with
        | Some s -> s
        | None ->
            let s = Hashtbl.length slots in
            Hashtbl.add slots v s;
            names := v :: !names;
            s)
    | Term.Const _ as t -> (
        match Ids.find_opt consts t with
        | Some k -> lnot k
        | None ->
            let k = Ids.length consts in
            Ids.add consts t k;
            cs := t :: !cs;
            lnot k)
  in
  let chead = Array.map code c.Clause.head.Atom.args in
  let lits =
    Array.of_list c.Clause.body
    |> Array.map (fun (a : Atom.t) ->
           let args = Array.map code a.Atom.args in
           let vset =
             Array.to_list args
             |> List.filter (fun s -> s >= 0)
             |> List.sort_uniq Int.compare |> Array.of_list
           in
           { rel = a.Atom.rel; args; vset })
  in
  {
    chead_rel = c.Clause.head.Atom.rel;
    chead;
    lits;
    consts = Array.of_list (List.rev !cs);
    names = Array.of_list (List.rev !names);
  }

(* ---------------------------------------------------------------- *)
(* One test: a compiled pattern bound to a prepared target           *)
(* ---------------------------------------------------------------- *)

type state = {
  bind : int array;  (** slot → target id; -1 while unbound *)
  trail : int array;  (** bound slots, in the order they were bound *)
  mutable top : int;  (** height of [trail] *)
  cid : int array;  (** pattern constant → target id; -1 when absent *)
  n_terms : int;  (** the target's id count *)
}

(* A pattern literal with its candidate rows in the target. *)
type cands = {
  lit : lit;
  rows : int array;  (** the target's group of [lit]'s relation and arity *)
  mutable cand : int array;
      (** offsets in [rows] of the candidates left; its first [n] are
          live during arc consistency, which trims it at the end *)
  mutable n : int;
  idx : int array array array;
      (** per argument position, built on first use, the candidates by
          their id there; [[||]] until then *)
}

(* Match [args] against the [Array.length args] ids of [rows] from
   [off]; newly bound slots are pushed on the trail, and on failure the
   caller rewinds. *)
let match_args st args rows off =
  let n = Array.length args in
  let rec go i =
    i >= n
    ||
    let x = rows.(off + i) and a = args.(i) in
    (if a < 0 then st.cid.(lnot a) = x
     else
       let b = st.bind.(a) in
       if b >= 0 then b = x
       else begin
         st.bind.(a) <- x;
         st.trail.(st.top) <- a;
         st.top <- st.top + 1;
         true
       end)
    && go (i + 1)
  in
  go 0

let rewind st mark =
  while st.top > mark do
    st.top <- st.top - 1;
    st.bind.(st.trail.(st.top)) <- -1
  done

(* The candidate rows of [l] in [p], found by binary search; a literal
   without any is refuted up front. *)
let bind_literal (p : prepared) (l : lit) =
  let arity = Array.length l.args in
  let rec find lo hi =
    if lo >= hi then raise Refuted
    else
      let mid = (lo + hi) / 2 in
      let c = compare_group l.rel arity p.groups.(mid) in
      if c = 0 then p.groups.(mid)
      else if c < 0 then find lo mid
      else find (mid + 1) hi
  in
  let g = find 0 (Array.length p.groups) in
  let cand = Array.make g.count 0 in
  for r = 1 to g.count - 1 do
    cand.(r) <- r * arity
  done;
  { lit = l; rows = g.rows; cand; n = g.count; idx = Array.make arity [||] }

(* ---------------------------------------------------------------- *)
(* First-bound-argument candidate index                               *)
(* ---------------------------------------------------------------- *)

(* The candidates of [l] indexed by their id at position [i], built on
   first use. Arc consistency is the last mutation of [l.cand], so
   indexes built during the search never go stale. A bucket lists its
   candidates last first. *)
let index_at st l i =
  match l.idx.(i) with
  | [||] ->
      let fill = Array.make st.n_terms 0 in
      Array.iter
        (fun off ->
          let x = l.rows.(off + i) in
          fill.(x) <- fill.(x) + 1)
        l.cand;
      let ix = Array.map (fun k -> if k = 0 then [||] else Array.make k 0) fill in
      Array.iter
        (fun off ->
          let x = l.rows.(off + i) in
          let k = fill.(x) - 1 in
          fill.(x) <- k;
          ix.(x).(k) <- off)
        l.cand;
      l.idx.(i) <- ix;
      ix
  | ix -> ix

(* Candidates of [l] compatible with the current bindings, narrowed
   through the index of the first variable position already bound (the
   ROADMAP's "first bound argument" selection). Constant positions are
   ignored: arc consistency already filtered them. *)
let candidates st l =
  let args = l.lit.args in
  let n = Array.length args in
  let rec first i =
    if i >= n then l.cand
    else
      let a = args.(i) in
      if a >= 0 && st.bind.(a) >= 0 then (index_at st l i).(st.bind.(a))
      else first (i + 1)
  in
  first 0

(* a literal still has at least one candidate under current bindings *)
let alive st l =
  let cands = candidates st l in
  let rec probe k =
    k < Array.length cands
    &&
    let mark = st.top in
    let ok = match_args st l.lit.args l.rows cands.(k) in
    rewind st mark;
    ok || probe (k + 1)
  in
  probe 0

(* ---------------------------------------------------------------- *)
(* Arc-consistency pruning                                            *)
(* ---------------------------------------------------------------- *)

let word = Sys.int_size

(* Domains are bitsets over the target's ids, [nw] words per slot, in
   one array. A slot that the head left unbound has no domain ([known]
   false), and admits any id, until a literal narrows it. A round
   filters each literal's candidates against the domains, then narrows
   the domain of each of its variables to the ids the survivors hold
   there; rounds repeat until one changes nothing. *)
let arc_consistent st (ls : cands array) =
  let nv = Array.length st.bind in
  let nw = (st.n_terms + word - 1) / word in
  let dom = Array.make (nv * nw) 0 and known = Array.make nv false in
  let add bits base x =
    let w = base + (x / word) in
    bits.(w) <- bits.(w) lor (1 lsl (x mod word))
  in
  Array.iteri
    (fun v x ->
      if x >= 0 then begin
        known.(v) <- true;
        add dom (v * nw) x
      end)
    st.bind;
  let support = Array.make nw 0 in
  let compatible l off =
    let args = l.lit.args in
    let rec go i =
      i >= Array.length args
      ||
      let x = l.rows.(off + i) and a = args.(i) in
      (if a < 0 then st.cid.(lnot a) = x
       else
         (not known.(a))
         || dom.((a * nw) + (x / word)) land (1 lsl (x mod word)) <> 0)
      && go (i + 1)
    in
    go 0
  in
  let narrow l i a =
    Array.fill support 0 nw 0;
    for k = 0 to l.n - 1 do
      add support 0 l.rows.(l.cand.(k) + i)
    done;
    let base = a * nw in
    let empty = ref true and same = ref known.(a) in
    for w = 0 to nw - 1 do
      let s = if known.(a) then support.(w) land dom.(base + w) else support.(w) in
      support.(w) <- s;
      if s <> 0 then empty := false;
      if s <> dom.(base + w) then same := false
    done;
    if !empty then raise Refuted;
    if not !same then begin
      Array.blit support 0 dom base nw;
      known.(a) <- true;
      true
    end
    else false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun l ->
        Obs.Counter.add c_ac_scans l.n;
        let kept = ref 0 in
        for k = 0 to l.n - 1 do
          let off = l.cand.(k) in
          if compatible l off then begin
            l.cand.(!kept) <- off;
            incr kept
          end
        done;
        if !kept <> l.n then begin
          l.n <- !kept;
          changed := true
        end;
        if !kept = 0 then raise Refuted;
        Array.iteri
          (fun i a -> if a >= 0 && narrow l i a then changed := true)
          l.lit.args)
      ls
  done;
  Array.iter
    (fun l -> if l.n < Array.length l.cand then l.cand <- Array.sub l.cand 0 l.n)
    ls

(* ---------------------------------------------------------------- *)
(* Search                                                             *)
(* ---------------------------------------------------------------- *)

(* static order: most already-bound variables first, then smallest
   candidate set, then body order *)
let order_literals st (ls : cands array) =
  let n = Array.length ls in
  let placed = Array.make n false in
  let bound = Array.map (fun x -> x >= 0) st.bind in
  Array.init n (fun _ ->
      let best = ref (-1) and best_bound = ref (-1) and best_size = ref max_int in
      for i = 0 to n - 1 do
        if not placed.(i) then begin
          let b =
            Array.fold_left
              (fun acc v -> if bound.(v) then acc + 1 else acc)
              0 ls.(i).lit.vset
          in
          let size = Array.length ls.(i).cand in
          if !best < 0 || b > !best_bound || (b = !best_bound && size < !best_size)
          then begin
            best := i;
            best_bound := b;
            best_size := size
          end
        end
      done;
      placed.(!best) <- true;
      Array.iter (fun v -> bound.(v) <- true) ls.(!best).lit.vset;
      ls.(!best))

let search ~max_steps st (ordered : cands array) =
  let n = Array.length ordered in
  (* forward-checking neighbors: later literals sharing a variable *)
  let later_neighbors =
    Array.init n (fun i ->
        let vs = ordered.(i).lit.vset in
        List.init (n - 1 - i) (fun k -> ordered.(i + 1 + k))
        |> List.filter (fun l -> Array.exists (fun v -> Array.mem v l.lit.vset) vs)
        |> Array.of_list)
  in
  let steps = ref 0 in
  let rec go i =
    i >= n
    || begin
         incr steps;
         if !steps > max_steps then raise Budget_exhausted;
         let l = ordered.(i) in
         let cands = candidates st l in
         let rec try_cand j =
           j < Array.length cands
           &&
           let mark = st.top in
           (match_args st l.lit.args l.rows cands.(j)
           && Array.for_all (alive st) later_neighbors.(i)
           && go (i + 1))
           || begin
                rewind st mark;
                try_cand (j + 1)
              end
         in
         try_cand 0
       end
  in
  match go 0 with
  | found ->
      Obs.Counter.add c_steps !steps;
      found
  | exception e ->
      Obs.Counter.add c_steps !steps;
      raise e

(* ---------------------------------------------------------------- *)
(* Public interface                                                   *)
(* ---------------------------------------------------------------- *)

(* The test of [c = compile C] against [p = prepare D]: the target id
   bound to every slot of [c] by a witness θ with [Cθ ⊆ D], or [None]
   when there is none. Raises [Budget_exhausted], counted, when the
   search takes more than [max_steps] steps before deciding. *)
let run ~max_steps (c : compiled) (p : prepared) =
  Obs.Counter.incr c_calls;
  let nv = Array.length c.names in
  let st =
    {
      bind = Array.make nv (-1);
      trail = Array.make nv 0;
      top = 0;
      cid =
        Array.map
          (fun t ->
            let rec scan i =
              if i >= Array.length p.terms then -1
              else if Term.equal t p.terms.(i) then i
              else scan (i + 1)
            in
            scan 0)
          c.consts;
      n_terms = Array.length p.terms;
    }
  in
  if
    not
      (String.equal c.chead_rel p.head_rel
      && Array.length c.chead = Array.length p.head
      && match_args st c.chead p.head 0)
  then None
  else if Array.length c.lits = 0 then Some st.bind
  else
    match Array.map (bind_literal p) c.lits with
    | exception Refuted ->
        Obs.Counter.incr c_ac_refuted;
        None
    | ls -> (
        match arc_consistent st ls with
        | exception Refuted ->
            Obs.Counter.incr c_ac_refuted;
            None
        | () -> (
            match search ~max_steps st (order_literals st ls) with
            | exception Budget_exhausted ->
                Obs.Counter.incr c_budget_exhausted;
                raise Budget_exhausted
            | false -> None
            | true -> Some st.bind))

(** [subsumes_compiled ?max_steps c p] decides [C θ-subsumes D] for
    [c = compile C] and [p = prepare D]: [Some answer], or [None] when
    the search ran out of its [max_steps] budget (default 60,000)
    before deciding. *)
let subsumes_compiled ?(max_steps = 60_000) c p =
  match run ~max_steps c p with
  | r -> Some (Option.is_some r)
  | exception Budget_exhausted -> None

(** [subsumes_prepared ?max_steps c p] is {!subsumes_compiled} on
    [compile c]. *)
let subsumes_prepared ?max_steps c p = subsumes_compiled ?max_steps (compile c) p

(** [subsuming_subst ?max_steps c d] returns a witness θ with
    [Cθ ⊆ D], or [None]. Heads must match. A search that runs out of
    its [max_steps] budget (default 60,000) answers [None]: the
    conservative "does not subsume". *)
let subsuming_subst ?(max_steps = 60_000) c d =
  let cc = compile c and p = prepare d in
  match run ~max_steps cc p with
  | exception Budget_exhausted -> None
  | None -> None
  | Some bind ->
      let s = ref Subst.empty in
      Array.iteri
        (fun v name -> s := Subst.bind name p.terms.(bind.(v)) !s)
        cc.names;
      Some !s

(** [subsumes c d] decides [C θ-subsumes D], conservatively under the
    budget like {!subsuming_subst}. *)
let subsumes ?max_steps c d =
  subsumes_compiled ?max_steps (compile c) (prepare d) = Some true

(** Reference implementation without pruning or ordering, used to
    cross-check the optimized engine in tests. *)
let subsumes_naive ?(max_steps = 2_000_000) (c : Clause.t) (d : Clause.t) =
  match Subst.match_atom Subst.empty c.Clause.head d.Clause.head with
  | None -> false
  | Some s0 ->
      let darr = Array.of_list d.Clause.body in
      let steps = ref 0 in
      let rec go s = function
        | [] -> true
        | lit :: rest ->
            incr steps;
            if !steps > max_steps then raise Budget_exhausted;
            let n = Array.length darr in
            let rec try_cand i =
              if i >= n then false
              else
                match Subst.match_atom s lit darr.(i) with
                | Some s' -> go s' rest || try_cand (i + 1)
                | None -> try_cand (i + 1)
            in
            try_cand 0
      in
      (try go s0 c.Clause.body with Budget_exhausted -> false)

(** θ-equivalence of clauses: mutual subsumption. *)
let equivalent ?max_steps c1 c2 =
  subsumes ?max_steps c1 c2 && subsumes ?max_steps c2 c1

(** [definition_subsumes d1 d2] holds when every clause of [d2] is
    subsumed by some clause of [d1] — i.e. [d1] is at least as general,
    clause-wise. *)
let definition_subsumes ?max_steps (d1 : Clause.definition)
    (d2 : Clause.definition) =
  List.for_all
    (fun c2 -> List.exists (fun c1 -> subsumes ?max_steps c1 c2) d1.Clause.clauses)
    d2.Clause.clauses

(** Clause-wise θ-equivalence of definitions. *)
let definition_equivalent ?max_steps d1 d2 =
  definition_subsumes ?max_steps d1 d2 && definition_subsumes ?max_steps d2 d1
