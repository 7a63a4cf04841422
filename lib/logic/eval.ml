(** Direct evaluation of clauses and definitions over database
    instances — the semantics [h(I)] of Section 3.2.2.

    Evaluation is a backtracking join over indexed lookups, choosing
    at each step the body literal with the most bound arguments. It
    provides the exact coverage semantics ("∃θ: head θ = e and
    body θ ⊆ I") that the faster subsumption-against-bottom-clause
    tests approximate. Every lookup reads the live instance through
    the {!Castor_relational.Backend} functions. *)

open Castor_relational

exception Too_many_answers

let bound_pairs subst (a : Atom.t) =
  let pairs = ref [] and n_bound = ref 0 in
  Array.iteri
    (fun i t ->
      match Subst.apply_term subst t with
      | Term.Const v ->
          pairs := (i, v) :: !pairs;
          incr n_bound
      | Term.Var _ -> ())
    a.Atom.args;
  (List.rev !pairs, !n_bound)

(* extend [subst] so that atom [a] matches tuple [tu] *)
let match_tuple subst (a : Atom.t) (tu : Tuple.t) =
  let n = Array.length a.Atom.args in
  let rec go s i =
    if i >= n then Some s
    else
      match Subst.apply_term s a.Atom.args.(i) with
      | Term.Const v -> if Value.equal v tu.(i) then go s (i + 1) else None
      | Term.Var x -> go (Subst.bind x (Term.Const tu.(i)) s) (i + 1)
  in
  go subst 0

(** [iter_solutions inst body subst f] calls [f] on every substitution
    that satisfies [body] in [inst], extending [subst]. [f] may raise
    to stop the enumeration. *)
let rec iter_solutions inst (body : Atom.t list) subst f =
  match body with
  | [] -> f subst
  | _ ->
      (* most-bound literal first *)
      let scored =
        List.map (fun a -> (a, snd (bound_pairs subst a))) body
      in
      let best, _ =
        List.fold_left
          (fun (ba, bs) (a, s) -> if s > bs then (a, s) else (ba, bs))
          (List.hd scored |> fst, snd (List.hd scored))
          (List.tl scored)
      in
      let rest = List.filter (fun a -> a != best) body in
      let pairs, _ = bound_pairs subst best in
      List.iter
        (fun tu ->
          match match_tuple subst best tu with
          | Some s' -> iter_solutions inst rest s' f
          | None -> ())
        (Backend.find_matching inst best.Atom.rel pairs)

(** [covers inst clause example] decides whether [clause] covers the
    ground atom [example] relative to [inst]. *)
let covers inst (clause : Clause.t) (example : Atom.t) =
  match Subst.match_atom Subst.empty clause.Clause.head example with
  | None -> false
  | Some s0 -> (
      let exception Found in
      try
        iter_solutions inst clause.Clause.body s0 (fun _ -> raise Found);
        false
      with Found -> true)

(** [definition_covers inst def example] — some clause covers it. *)
let definition_covers inst (def : Clause.definition) example =
  List.exists (fun c -> covers inst c example) def.Clause.clauses

(** [answers ?limit inst clause] computes the head instantiations of
    [clause] over [inst] — the result [h(I)] for a one-clause
    definition. Unsafe clauses only report groundings of their safe
    part; head variables not bound by the body raise
    [Invalid_argument].
    @raise Too_many_answers beyond [limit]. *)
let answers ?(limit = 200_000) inst (clause : Clause.t) =
  let out = ref Tuple.Set.empty in
  iter_solutions inst clause.Clause.body Subst.empty (fun s ->
      let head = Subst.apply_atom s clause.Clause.head in
      if not (Atom.is_ground head) then
        invalid_arg "Eval.answers: unsafe clause (unbound head variable)";
      out := Tuple.Set.add (Atom.to_tuple head) !out;
      if Tuple.Set.cardinal !out > limit then raise Too_many_answers);
  !out

(** [definition_answers inst def] is the union of the clauses'
    answers. *)
let definition_answers ?limit inst (def : Clause.definition) =
  List.fold_left
    (fun acc c -> Tuple.Set.union acc (answers ?limit inst c))
    Tuple.Set.empty def.Clause.clauses
