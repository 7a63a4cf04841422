(** A semi-naive Datalog engine for definite programs.

    Learned Horn definitions are non-recursive, but many of the
    paper's motivating applications (learning database queries,
    entity resolution, schema mapping) evaluate learned programs —
    possibly several definitions feeding each other, possibly
    recursive (the hypothesis language technically admits recursion
    through the target relation). This engine computes the least
    fixpoint of a set of Horn clauses over a database instance with
    semi-naive iteration: each round only joins against the facts
    derived in the previous round.

    Derived relations live in a separate fact store keyed by relation
    name, so the input {!Castor_relational.Instance} is never
    mutated.

    {!materialize} keeps a fixpoint alive across mutations of the
    instance: insertions arriving as {!Castor_relational.Delta} values
    extend the materialization with one adds-only semi-naive pass
    (each round joins against the newly inserted base facts and the
    facts they derived); a deletion retracts support a derived fact
    may depend on, so it falls back to a full recomputation. *)

open Castor_relational
module Obs = Castor_obs.Obs

let c_view_rounds = Obs.Counter.create "logic.datalog.delta_rounds"

let c_view_recomputes = Obs.Counter.create "logic.datalog.view_recomputes"

type fact_store = (string, Atom.Set.t ref) Hashtbl.t

let store_mem (fs : fact_store) (a : Atom.t) =
  match Hashtbl.find_opt fs a.Atom.rel with
  | Some s -> Atom.Set.mem a !s
  | None -> false

let store_add (fs : fact_store) (a : Atom.t) =
  match Hashtbl.find_opt fs a.Atom.rel with
  | Some s ->
      if Atom.Set.mem a !s then false
      else begin
        s := Atom.Set.add a !s;
        true
      end
  | None ->
      Hashtbl.replace fs a.Atom.rel (ref (Atom.Set.singleton a));
      true

let store_facts (fs : fact_store) rel =
  match Hashtbl.find_opt fs rel with Some s -> Atom.Set.elements !s | None -> []

(* all substitutions satisfying [body]: literals may match base
   relations of [inst] or derived facts in [fs]; when [delta] is
   given, at least one literal must match inside [delta]
   (semi-naive) *)
let rec solve inst (fs : fact_store) ?delta body subst emit =
  match body with
  | [] -> (match delta with None -> emit subst | Some _ -> ())
  | (lit : Atom.t) :: rest ->
      let lit' = Subst.apply_atom subst lit in
      (* candidates from the base data *)
      let base_candidates =
        if Backend.has_relation inst lit'.Atom.rel then begin
          (* use the first bound argument for an indexed probe *)
          let bound =
            Array.to_list lit'.Atom.args
            |> List.mapi (fun i t -> (i, t))
            |> List.filter_map (fun (i, t) ->
                   match t with Term.Const v -> Some (i, v) | Term.Var _ -> None)
          in
          Backend.find_matching inst lit'.Atom.rel bound
          |> List.map (Atom.of_tuple lit'.Atom.rel)
        end
        else []
      in
      let derived_candidates = store_facts fs lit'.Atom.rel in
      let try_cand ~in_delta cand =
        match Subst.match_atom subst lit cand with
        | None -> ()
        | Some subst' ->
            if in_delta then solve inst fs rest subst' emit
            else solve inst fs ?delta rest subst' emit
      in
      (match delta with
      | None -> List.iter (try_cand ~in_delta:false) base_candidates
      | Some (d : fact_store) ->
          (* a base fact can be the required delta occurrence too: the
             incremental view pass seeds its first round with newly
             inserted base tuples under their base relation names *)
          List.iter
            (fun cand -> try_cand ~in_delta:(store_mem d cand) cand)
            base_candidates);
      (match delta with
      | None -> List.iter (try_cand ~in_delta:false) derived_candidates
      | Some (d : fact_store) ->
          (* facts already in fs but not in delta: old; facts in delta:
             count as the required new occurrence *)
          let delta_set =
            match Hashtbl.find_opt d lit'.Atom.rel with
            | Some s -> !s
            | None -> Atom.Set.empty
          in
          List.iter
            (fun cand ->
              try_cand ~in_delta:(Atom.Set.mem cand delta_set) cand)
            derived_candidates)

exception Unsafe_clause of Clause.t

let head_instance (cl : Clause.t) subst =
  let h = Subst.apply_atom subst cl.Clause.head in
  if not (Atom.is_ground h) then raise (Unsafe_clause cl);
  h

(** [run ?max_rounds inst clauses] computes the least fixpoint of
    [clauses] over [inst] and returns the derived fact store. Clauses
    must be safe.
    @raise Unsafe_clause if a head variable is unbound by its body. *)
let run ?(max_rounds = 10_000) inst (clauses : Clause.t list) : fact_store =
  let fs : fact_store = Hashtbl.create 8 in
  (* round 0: naive evaluation against the base instance only *)
  let delta : fact_store ref = ref (Hashtbl.create 8) in
  List.iter
    (fun (cl : Clause.t) ->
      solve inst fs cl.Clause.body Subst.empty (fun subst ->
          let h = head_instance cl subst in
          if store_add fs h then ignore (store_add !delta h)))
    clauses;
  let rounds = ref 0 in
  while Hashtbl.length !delta > 0 && !rounds < max_rounds do
    incr rounds;
    let next_delta : fact_store = Hashtbl.create 8 in
    List.iter
      (fun (cl : Clause.t) ->
        solve inst fs ~delta:!delta cl.Clause.body Subst.empty (fun subst ->
            let h = head_instance cl subst in
            if not (store_mem fs h) then begin
              ignore (store_add fs h);
              ignore (store_add next_delta h)
            end))
      clauses;
    delta := next_delta
  done;
  fs

(* ------------------------------------------------------------------ *)
(* Incrementally maintained materializations                           *)
(* ------------------------------------------------------------------ *)

(** A live fixpoint: the derived facts of [program] over [inst],
    maintained under the instance's delta stream. *)
type view = {
  program : Clause.t list;
  inst : Instance.t;
  vmax_rounds : int;
  mutable facts : fact_store;
}

(** [materialize ?max_rounds inst program] computes the fixpoint once
    and wraps it as a maintainable view. *)
let materialize ?(max_rounds = 10_000) inst (program : Clause.t list) =
  { program; inst; vmax_rounds = max_rounds; facts = run ~max_rounds inst program }

let view_facts v rel = store_facts v.facts rel

(* Adds-only maintenance: the inserted base tuples seed the semi-naive
   delta store, so round 1 finds exactly the derivations using at
   least one new base fact, and later rounds chase what those derived.
   Sound because the program is monotone: no old fact loses support
   under an insertion. *)
let extend_with_adds v adds =
  let delta : fact_store ref = ref (Hashtbl.create 8) in
  List.iter
    (fun (rel, tu) -> ignore (store_add !delta (Atom.of_tuple rel tu)))
    adds;
  let rounds = ref 0 in
  while Hashtbl.length !delta > 0 && !rounds < v.vmax_rounds do
    incr rounds;
    Obs.Counter.incr c_view_rounds;
    let next : fact_store = Hashtbl.create 8 in
    List.iter
      (fun (cl : Clause.t) ->
        solve v.inst v.facts ~delta:!delta cl.Clause.body Subst.empty
          (fun subst ->
            let h = head_instance cl subst in
            if not (store_mem v.facts h) then begin
              ignore (store_add v.facts h);
              ignore (store_add next h)
            end))
      v.program;
    delta := next
  done

(** [update v ds] maintains the view under a delta batch that has
    already been applied to the view's instance. Pure insertions run
    the adds-only semi-naive extension ([logic.datalog.delta_rounds]);
    any removal may retract support for a derived fact, so the view
    falls back to a full recomputation
    ([logic.datalog.view_recomputes]). *)
let update v (ds : Delta.t list) =
  if List.exists (fun d -> not (Delta.is_add d)) ds then begin
    Obs.Counter.incr c_view_recomputes;
    v.facts <- run ~max_rounds:v.vmax_rounds v.inst v.program
  end
  else extend_with_adds v (List.map (fun d -> (Delta.rel d, Delta.tuple d)) ds)

(** [watch v] subscribes the view to its instance's delta stream. *)
let watch v = Backend.subscribe v.inst (update v)

(** [query ?max_rounds inst program target] — the derived tuples of
    relation [target]. *)
let query ?max_rounds inst (program : Clause.t list) target =
  let fs = run ?max_rounds inst program in
  store_facts fs target |> List.map Atom.to_tuple |> Tuple.Set.of_list

(** [definition_answers inst def] evaluates one learned definition;
    agrees with {!Eval.definition_answers} for safe non-recursive
    definitions but also handles recursion. *)
let definition_answers ?max_rounds inst (def : Clause.definition) =
  query ?max_rounds inst def.Clause.clauses def.Clause.target
