(** θ-subsumption engine (the role Resumer2 plays in the paper's
    implementation, Section 7.5.3).

    Clause [C] θ-subsumes clause [D] iff there is a substitution θ with
    [Cθ ⊆ D] (literal-set inclusion) and the heads unified by θ. [D]'s
    variables are treated as frozen constants, so the same engine
    answers both coverage tests (where [D] is a ground bottom clause)
    and clause-reduction tests (where [D] shares variables with [C]).

    The engine follows the constraint-satisfaction view of subsumption
    (Maloberti & Sebag's Django; Kuželka & Železný's Resumer):

    - pattern variables are compiled to dense integers and bindings
      live in a mutable array with an undo trail, so the search
      allocates almost nothing — coverage testing dominates learning
      time (Section 7.5.3) and runs in parallel domains, where
      allocation pressure serializes on the collector;
    - per-literal candidate sets are pruned by arc-consistency over
      variable domains before searching, which refutes most
      non-subsumptions in polynomial time;
    - the surviving candidates are searched by backtracking in a
      static most-bound-first literal order with forward checking of
      variable-sharing neighbors.

    A step budget bounds pathological instances. The clause-level
    calls ({!subsumes}, {!subsuming_subst}, {!equivalent}, ...) answer
    conservatively when it runs out: "does not subsume", which is what
    clause reduction ({!Minimize}) wants. The prepared call
    {!subsumes_prepared} reports the exhaustion instead ([None]), so
    coverage testing can finish the search without a budget and stay
    exact (see {!Castor_ilp.Coverage}).

    A target [D] tested against many clauses can be {e prepared} once
    ({!prepare}: its head plus its body grouped by relation) and tested
    with {!subsumes_prepared}; {!subsuming_subst} is the prepared call
    on [prepare d], so both share one search path. A prepared target
    is immutable: it can be shared with worker domains. *)

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

type groups = (string, Atom.t array) Hashtbl.t

let group_body (body : Atom.t list) : groups =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (a : Atom.t) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl a.Atom.rel) in
      Hashtbl.replace tbl a.Atom.rel (a :: cur))
    body;
  let out = Hashtbl.create 16 in
  Hashtbl.iter (fun k v -> Hashtbl.replace out k (Array.of_list v)) tbl;
  out

exception Budget_exhausted

exception Refuted

(* ---------------------------------------------------------------- *)
(* Compiled representation                                           *)
(* ---------------------------------------------------------------- *)

(* pattern argument: a constant to match exactly, or a variable slot *)
type parg = Pconst of Term.t | Pvar of int

type plit = {
  prel : string;
  pargs : parg array;
  mutable cands : Atom.t array;  (** AC-filtered candidate literals *)
  vset : int list;  (** variable slots occurring in the literal *)
  mutable idx : (int * (Term.t, Atom.t array) Hashtbl.t) list;
      (** lazily built per-position indexes over [cands]; valid only
          after arc-consistency, which is the last mutation of
          [cands] *)
}

(* every literal of [arr] from index [i] on has [n] arguments *)
let rec all_of_arity n (arr : Atom.t array) i =
  i >= Array.length arr
  || (Array.length arr.(i).Atom.args = n && all_of_arity n arr (i + 1))

let compile_pattern (lits : Atom.t list) (groups : groups) =
  let var_ids = Hashtbl.create 16 in
  let n_vars = ref 0 in
  let id_of v =
    match Hashtbl.find_opt var_ids v with
    | Some i -> i
    | None ->
        let i = !n_vars in
        incr n_vars;
        Hashtbl.add var_ids v i;
        i
  in
  let plits =
    List.map
      (fun (a : Atom.t) ->
        let pargs =
          Array.map
            (function
              | Term.Const _ as c -> Pconst c
              | Term.Var v -> Pvar (id_of v))
            a.Atom.args
        in
        let vset =
          Array.to_list pargs
          |> List.filter_map (function Pvar i -> Some i | Pconst _ -> None)
          |> List.sort_uniq compare
        in
        (* a literal only matches candidates of its own relation
           {e and} arity; with none left it is refuted up front *)
        let cands =
          match Hashtbl.find_opt groups a.Atom.rel with
          | None -> raise Refuted
          | Some arr ->
              let n = Array.length a.Atom.args in
              if all_of_arity n arr 0 then arr
              else begin
                let kept =
                  List.filter
                    (fun (c : Atom.t) -> Array.length c.Atom.args = n)
                    (Array.to_list arr)
                in
                if kept = [] then raise Refuted;
                Array.of_list kept
              end
        in
        { prel = a.Atom.rel; pargs; cands; vset; idx = [] })
      lits
  in
  (plits, var_ids, !n_vars)

(* ---------------------------------------------------------------- *)
(* Matching against the binding array                                 *)
(* ---------------------------------------------------------------- *)

(* try to match [pl] against candidate [cand]; newly bound slots are
   pushed on [trail]; on failure the caller must rewind *)
let match_cand (bindings : Term.t option array) trail (pl : plit) (cand : Atom.t) =
  let n = Array.length pl.pargs in
  let rec go i =
    if i >= n then true
    else
      let target = cand.Atom.args.(i) in
      match pl.pargs.(i) with
      | Pconst c -> Term.equal c target && go (i + 1)
      | Pvar v -> (
          match bindings.(v) with
          | Some t -> Term.equal t target && go (i + 1)
          | None ->
              bindings.(v) <- Some target;
              trail := v :: !trail;
              go (i + 1))
  in
  go 0

let rewind (bindings : Term.t option array) trail mark =
  while !trail != mark do
    match !trail with
    | v :: rest ->
        bindings.(v) <- None;
        trail := rest
    | [] -> assert false
  done

(* ---------------------------------------------------------------- *)
(* First-bound-argument candidate index                               *)
(* ---------------------------------------------------------------- *)

(* Index the candidates of [pl] by their term at position [i], built
   on first use. Arc-consistency is the last mutation of [pl.cands],
   so indexes built during the search never go stale. *)
let index_at (pl : plit) i =
  match List.assoc_opt i pl.idx with
  | Some tbl -> tbl
  | None ->
      let buckets : (Term.t, Atom.t list) Hashtbl.t =
        Hashtbl.create (Array.length pl.cands)
      in
      Array.iter
        (fun (cand : Atom.t) ->
          let k = cand.Atom.args.(i) in
          let cur = Option.value ~default:[] (Hashtbl.find_opt buckets k) in
          Hashtbl.replace buckets k (cand :: cur))
        pl.cands;
      let tbl = Hashtbl.create (Hashtbl.length buckets) in
      Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (Array.of_list v)) buckets;
      pl.idx <- (i, tbl) :: pl.idx;
      tbl

(* Candidates of [pl] compatible with the current bindings, narrowed
   through the index of the first variable position already bound (the
   ROADMAP's "first bound argument" selection). Constant positions are
   ignored: arc-consistency already filtered them. *)
let candidates (bindings : Term.t option array) (pl : plit) =
  let n = Array.length pl.pargs in
  let rec first i =
    if i >= n then None
    else
      match pl.pargs.(i) with
      | Pvar v -> (
          match bindings.(v) with
          | Some t -> Some (i, t)
          | None -> first (i + 1))
      | Pconst _ -> first (i + 1)
  in
  match first 0 with
  | None -> pl.cands
  | Some (i, t) -> (
      match Hashtbl.find_opt (index_at pl i) t with
      | Some arr -> arr
      | None -> [||])

(* a literal still has at least one candidate under current bindings *)
let alive bindings (pl : plit) =
  let cands = candidates bindings pl in
  let m = Array.length cands in
  let scratch = ref [] in
  let rec probe k =
    if k >= m then false
    else begin
      let mark = !scratch in
      let ok = match_cand bindings scratch pl cands.(k) in
      rewind bindings scratch mark;
      ok || probe (k + 1)
    end
  in
  probe 0

(* ---------------------------------------------------------------- *)
(* Arc-consistency pruning                                            *)
(* ---------------------------------------------------------------- *)

let arc_consistent (bindings : Term.t option array) (plits : plit list) =
  let domains : Term.Set.t option array = Array.make (Array.length bindings) None in
  Array.iteri
    (fun i b ->
      match b with
      | Some t -> domains.(i) <- Some (Term.Set.singleton t)
      | None -> ())
    bindings;
  let compatible (pl : plit) (cand : Atom.t) =
    let n = Array.length pl.pargs in
    let rec go i =
      i >= n
      || ((match pl.pargs.(i) with
          | Pconst c -> Term.equal c cand.Atom.args.(i)
          | Pvar v -> (
              match domains.(v) with
              | None -> true
              | Some d -> Term.Set.mem cand.Atom.args.(i) d))
         && go (i + 1))
    in
    go 0
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun pl ->
        Obs.Counter.add c_ac_scans (Array.length pl.cands);
        let filtered = Array.of_list (List.filter (compatible pl) (Array.to_list pl.cands)) in
        if Array.length filtered <> Array.length pl.cands then begin
          pl.cands <- filtered;
          changed := true
        end;
        if Array.length filtered = 0 then raise Refuted;
        (* rebuild the domains of the literal's variables *)
        Array.iteri
          (fun i arg ->
            match arg with
            | Pconst _ -> ()
            | Pvar v ->
                let support =
                  Array.fold_left
                    (fun acc (cand : Atom.t) -> Term.Set.add cand.Atom.args.(i) acc)
                    Term.Set.empty filtered
                in
                let next =
                  match domains.(v) with
                  | None -> support
                  | Some d -> Term.Set.inter d support
                in
                if Term.Set.is_empty next then raise Refuted;
                (match domains.(v) with
                | Some d when Term.Set.equal d next -> ()
                | _ ->
                    domains.(v) <- Some next;
                    changed := true))
          pl.pargs)
      plits
  done

(* ---------------------------------------------------------------- *)
(* Search                                                             *)
(* ---------------------------------------------------------------- *)

(* static order: most already-bound variables first, then smallest
   candidate set *)
let order_literals (bindings : Term.t option array) (plits : plit list) =
  let arr = Array.of_list plits in
  let n = Array.length arr in
  let placed = Array.make n false in
  let bound = Array.map Option.is_some bindings in
  (* per-call dummy for array initialization: a shared global here
     would alias a mutable record across domains *)
  let dummy_plit =
    { prel = ""; pargs = [||]; cands = [||]; vset = []; idx = [] }
  in
  let out = Array.make n dummy_plit in
  for slot = 0 to n - 1 do
    let best = ref (-1) in
    let best_key = ref (-1, max_int) in
    for i = 0 to n - 1 do
      if not placed.(i) then begin
        let bound_vars = List.length (List.filter (fun v -> bound.(v)) arr.(i).vset) in
        let key = (bound_vars, Array.length arr.(i).cands) in
        let better =
          let bv, gs = !best_key in
          fst key > bv || (fst key = bv && snd key < gs)
        in
        if !best < 0 || better then begin
          best := i;
          best_key := key
        end
      end
    done;
    placed.(!best) <- true;
    List.iter (fun v -> bound.(v) <- true) arr.(!best).vset;
    out.(slot) <- arr.(!best)
  done;
  out

let search ~max_steps bindings (ordered : plit array) =
  let n = Array.length ordered in
  (* forward-checking neighbors: later literals sharing a variable *)
  let later_neighbors =
    Array.init n (fun i ->
        let vs = ordered.(i).vset in
        let out = ref [] in
        for j = n - 1 downto i + 1 do
          if List.exists (fun v -> List.mem v ordered.(j).vset) vs then
            out := ordered.(j) :: !out
        done;
        Array.of_list !out)
  in
  let steps = ref 0 in
  let trail = ref [] in
  Fun.protect ~finally:(fun () -> Obs.Counter.add c_steps !steps) @@ fun () ->
  let rec go i =
    if i >= n then true
    else begin
      incr steps;
      if !steps > max_steps then raise Budget_exhausted;
      let pl = ordered.(i) in
      let cands = candidates bindings pl in
      let m = Array.length cands in
      let rec try_cand j =
        if j >= m then false
        else begin
          let mark = !trail in
          if
            match_cand bindings trail pl cands.(j)
            && Array.for_all (alive bindings) later_neighbors.(i)
            && go (i + 1)
          then true
          else begin
            rewind bindings trail mark;
            try_cand (j + 1)
          end
        end
      in
      try_cand 0
    end
  in
  if go 0 then Some bindings else None

(* ---------------------------------------------------------------- *)
(* Public interface                                                   *)
(* ---------------------------------------------------------------- *)

(** A subsumption target [D] prepared once for many tests: its head
    and its body literals grouped by relation. Coverage tests the same
    ground bottom clause against thousands of candidates, so it keeps
    one per example instead of regrouping the body on every call. A
    prepared target is immutable and safe to share across domains. *)
type prepared = { phead : Atom.t; pgroups : groups }

(** [prepare d] groups [d]'s body by relation. *)
let prepare (d : Clause.t) = { phead = d.Clause.head; pgroups = group_body d.Clause.body }

(* The witness θ with [Cθ ⊆ D] for [p = prepare D], or [None] when
   there is none. Raises [Budget_exhausted], counted, when the search
   takes more than [max_steps] steps before deciding. *)
let witness ~max_steps (c : Clause.t) (p : prepared) =
  Obs.Counter.incr c_calls;
  match Subst.match_atom Subst.empty c.Clause.head p.phead with
  | None -> None
  | Some s0 -> (
      if c.Clause.body = [] then Some s0
      else
        match compile_pattern c.Clause.body p.pgroups with
        | exception Refuted ->
            Obs.Counter.incr c_ac_refuted;
            None
        | plits, var_ids, n_vars -> (
            let bindings = Array.make n_vars None in
            (* seed with the head unifier *)
            let ok =
              List.for_all
                (fun (v, t) ->
                  match Hashtbl.find_opt var_ids v with
                  | None -> true (* head-only variable *)
                  | Some i -> (
                      match bindings.(i) with
                      | None ->
                          bindings.(i) <- Some t;
                          true
                      | Some t' -> Term.equal t t'))
                (Subst.to_list s0)
            in
            if not ok then None
            else
              match arc_consistent bindings plits with
              | exception Refuted ->
                  Obs.Counter.incr c_ac_refuted;
                  None
              | () -> (
                  match
                    search ~max_steps bindings (order_literals bindings plits)
                  with
                  | exception Budget_exhausted ->
                      Obs.Counter.incr c_budget_exhausted;
                      raise Budget_exhausted
                  | None -> None
                  | Some bindings ->
                      (* assemble the witness substitution *)
                      let s = ref s0 in
                      Hashtbl.iter
                        (fun v i ->
                          match bindings.(i) with
                          | Some t -> s := Subst.bind v t !s
                          | None -> ())
                        var_ids;
                      Some !s)))

(** [subsumes_prepared ?max_steps c p] decides [C θ-subsumes D] for
    [p = prepare D]: [Some answer], or [None] when the search ran out
    of its [max_steps] budget (default 60,000) before deciding. *)
let subsumes_prepared ?(max_steps = 60_000) c p =
  match witness ~max_steps c p with
  | s -> Some (Option.is_some s)
  | exception Budget_exhausted -> None

(** [subsuming_subst ?max_steps c d] returns a witness θ with
    [Cθ ⊆ D], or [None]. Heads must match. A search that runs out of
    its [max_steps] budget (default 60,000) answers [None]: the
    conservative "does not subsume". *)
let subsuming_subst ?(max_steps = 60_000) c d =
  try witness ~max_steps c (prepare d) with Budget_exhausted -> None

(** [subsumes c d] decides [C θ-subsumes D], conservatively under the
    budget like {!subsuming_subst}. *)
let subsumes ?max_steps c d = Option.is_some (subsuming_subst ?max_steps c d)

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
