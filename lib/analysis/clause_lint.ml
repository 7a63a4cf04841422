(** Clause-level lints.

    The schema-independence guarantees (Theorems 6.5/6.6) assume
    well-formed clauses: safe (range-restricted, Section 7.3),
    head-connected (the clean-up invariant of ARMG, Algorithm 3) and
    free of statically redundant literals (Section 7.5.5). These
    checks flag the ways a hand-written or generated clause can break
    those assumptions {e before} it reaches coverage testing, where
    the failure would surface as silent mis-learning.

    Rule ids: [clause/unsafe], [clause/disconnected],
    [clause/singleton-var], [clause/duplicate-literal],
    [clause/redundant-literal], [clause/determinacy-depth],
    [clause/unknown-relation], [clause/arity-mismatch],
    [clause/domain-conflict]. *)

open Castor_relational
open Castor_logic

let d ?span ~rule ~severity ~clause fmt =
  Diagnostic.make ?span ~rule ~severity ~subject:(Clause.to_string clause) fmt

(* ---------------- structural lints (no schema needed) -------------- *)

(** Head variables with no body occurrence: the clause is unsafe
    (range restriction fails) and SQL/Datalog evaluation of it is
    undefined. One diagnostic per missing variable. *)
let unsafe ?span (c : Clause.t) =
  let body_vars =
    List.fold_left
      (fun s a -> Term.Set.union s (Atom.var_set a))
      Term.Set.empty c.Clause.body
  in
  List.filter_map
    (fun v ->
      if Term.Set.mem (Term.Var v) body_vars then None
      else
        Some
          (d ?span ~rule:"clause/unsafe" ~severity:Diagnostic.Error ~clause:c
             "head variable %s never occurs in the body (clause is unsafe)" v))
    (List.sort_uniq String.compare (Clause.head_vars c))

(** Body literals not connected to the head through shared variables —
    ARMG would silently drop them (Algorithm 3), so their presence in
    an input clause is almost always a mistake. *)
let disconnected ?span (c : Clause.t) =
  let kept = (Clause.head_connected c).Clause.body in
  List.filter_map
    (fun (a : Atom.t) ->
      if List.memq a kept then None
      else
        Some
          (d ?span ~rule:"clause/disconnected" ~severity:Diagnostic.Warning
             ~clause:c "literal %s is not connected to the head" (Atom.to_string a)))
    c.Clause.body

(** Variables occurring exactly once in the whole clause: they
    constrain nothing (an unused existential) and usually indicate a
    typo in a variable name. *)
let singleton_vars ?span (c : Clause.t) =
  let counts = Minimize.var_counts c in
  let head_vars = Clause.head_vars c in
  Hashtbl.fold
    (fun v n acc ->
      if n = 1 && not (List.mem v head_vars) then
        d ?span ~rule:"clause/singleton-var" ~severity:Diagnostic.Info ~clause:c
          "variable %s occurs only once (unused)" v
        :: acc
      else acc)
    counts []
  |> List.sort compare

(** Exact duplicate body literals. *)
let duplicate_literals ?span (c : Clause.t) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (a : Atom.t) ->
      let k = Atom.to_string a in
      if Hashtbl.mem seen k then
        Some
          (d ?span ~rule:"clause/duplicate-literal" ~severity:Diagnostic.Warning
             ~clause:c "literal %s appears more than once" k)
      else begin
        Hashtbl.add seen k ();
        None
      end)
    c.Clause.body

(* ---------------- redundant literals ------------------------------- *)

(** Indices (0-based, in body order) of literals that are statically
    redundant by literal-level θ-subsumption: literal [L] is absorbed
    by another literal [L'] of the same relation under a substitution
    renaming only variables private to [L] (the sound approximation of
    Section 7.5.5). Removing them yields a θ-equivalent clause. *)
let redundant_literal_indices (c : Clause.t) =
  let counts = Minimize.var_counts c in
  let body = Array.of_list c.Clause.body in
  let removed = Array.make (Array.length body) false in
  Array.iteri
    (fun i l ->
      if not removed.(i) then
        Array.iteri
          (fun j l' ->
            if i <> j && (not removed.(i)) && not removed.(j) then
              if Minimize.absorbs counts l l' then removed.(i) <- true)
          body)
    body;
  Array.to_list removed
  |> List.mapi (fun i r -> (i, r))
  |> List.filter_map (fun (i, r) -> if r then Some i else None)

let redundant_literals ?span (c : Clause.t) =
  let body = Array.of_list c.Clause.body in
  List.map
    (fun i ->
      d ?span ~rule:"clause/redundant-literal" ~severity:Diagnostic.Warning
        ~clause:c "literal %s (position %d) is θ-subsumed by the rest of the clause"
        (Atom.to_string body.(i))
        (i + 1))
    (redundant_literal_indices c)

(** [prune_redundant c] drops the statically redundant literals to a
    fixpoint ({!Minimize.reduce_absorbed}), returning the pruned clause
    and how many literals were removed. The result is θ-equivalent to
    [c] (same coverage). *)
let prune_redundant (c : Clause.t) =
  let pruned = Minimize.reduce_absorbed c in
  (pruned, List.length c.Clause.body - List.length pruned.Clause.body)

(* ---------------- determinacy depth -------------------------------- *)

(** [determinacy_depth c] estimates how many chained joins separate
    the deepest body literal from the head variables: literals sharing
    a variable with the head bind at depth 1, literals reachable only
    through those bind at depth 2, and so on (ground literals bind at
    depth 1 — they are self-contained database conditions). Returns
    [None] for an empty body; disconnected literals are ignored (they
    are reported separately by {!disconnected}). This is the static
    analogue of the bottom-clause [depth] parameter: a clause deeper
    than the saturation depth can never be produced — or covered — by
    the learner configured with that bound. *)
let determinacy_depth (c : Clause.t) =
  let reached = ref (Atom.var_set c.Clause.head) in
  let remaining = ref c.Clause.body in
  let depth = ref 0 in
  let max_depth = ref None in
  let progress = ref true in
  while !progress && !remaining <> [] do
    progress := false;
    incr depth;
    let layer, rest =
      List.partition
        (fun (a : Atom.t) ->
          let vs = Atom.var_set a in
          Term.Set.is_empty vs || not (Term.Set.is_empty (Term.Set.inter vs !reached)))
        !remaining
    in
    if layer <> [] then begin
      progress := true;
      max_depth := Some !depth;
      List.iter (fun a -> reached := Term.Set.union !reached (Atom.var_set a)) layer;
      remaining := rest
    end
  done;
  !max_depth

let depth_exceeded ?span ~limit (c : Clause.t) =
  match determinacy_depth c with
  | Some depth when depth > limit ->
      [
        d ?span ~rule:"clause/determinacy-depth" ~severity:Diagnostic.Warning
          ~clause:c
          "estimated determinacy depth %d exceeds the saturation depth bound %d: \
           the learner cannot construct or cover this clause"
          depth limit;
      ]
  | _ -> []

(* ---------------- schema-aware lints ------------------------------- *)

(** Relation symbols and arities of body literals against the schema;
    the head is checked against [target] when given (the target is not
    part of the schema, Section 2.2). *)
let against_schema ?span ?target (schema : Schema.t) (c : Clause.t) =
  let check_atom ~what (a : Atom.t) (decl : Schema.relation option) =
    match decl with
    | None ->
        [
          d ?span ~rule:"clause/unknown-relation" ~severity:Diagnostic.Error
            ~clause:c "%s relation %s is not declared in the schema" what a.Atom.rel;
        ]
    | Some r ->
        let expected = List.length r.Schema.attrs in
        if Atom.arity a <> expected then
          [
            d ?span ~rule:"clause/arity-mismatch" ~severity:Diagnostic.Error
              ~clause:c "%s(%d args) does not match declared arity %d" a.Atom.rel
              (Atom.arity a) expected;
          ]
        else []
  in
  let head_diags =
    match target with
    | None -> []
    | Some (t : Schema.relation) ->
        if not (String.equal c.Clause.head.Atom.rel t.Schema.rname) then []
        else check_atom ~what:"head" c.Clause.head (Some t)
  in
  let body_diags =
    List.concat_map
      (fun (a : Atom.t) ->
        check_atom ~what:"body"
          a
          (List.find_opt
             (fun (r : Schema.relation) -> String.equal r.Schema.rname a.Atom.rel)
             schema.Schema.relations))
      c.Clause.body
  in
  (* domain conflicts: one variable used at attributes of different
     domains can never bind (no value lives in both domains) *)
  let var_domains : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let note_atom (a : Atom.t) (decl : Schema.relation option) =
    match decl with
    | Some r when Atom.arity a = List.length r.Schema.attrs ->
        List.iteri
          (fun i (attr : Schema.attribute) ->
            match a.Atom.args.(i) with
            | Term.Var v ->
                let cur = Option.value ~default:[] (Hashtbl.find_opt var_domains v) in
                if not (List.mem attr.Schema.domain cur) then
                  Hashtbl.replace var_domains v (attr.Schema.domain :: cur)
            | Term.Const _ -> ())
          r.Schema.attrs
    | _ -> ()
  in
  (match target with
  | Some t when String.equal c.Clause.head.Atom.rel t.Schema.rname ->
      note_atom c.Clause.head (Some t)
  | _ -> ());
  List.iter
    (fun (a : Atom.t) ->
      note_atom a
        (List.find_opt
           (fun (r : Schema.relation) -> String.equal r.Schema.rname a.Atom.rel)
           schema.Schema.relations))
    c.Clause.body;
  let domain_diags =
    Hashtbl.fold
      (fun v doms acc ->
        match doms with
        | _ :: _ :: _ ->
            d ?span ~rule:"clause/domain-conflict" ~severity:Diagnostic.Warning
              ~clause:c "variable %s is used at incompatible domains %a" v
              Fmt.(list ~sep:comma string)
              (List.sort String.compare doms)
            :: acc
        | _ -> acc)
      var_domains []
    |> List.sort compare
  in
  head_diags @ body_diags @ domain_diags

(* ---------------- entry point -------------------------------------- *)

(** [check ?schema ?target ?span ?depth_limit c] runs every clause
    lint that its inputs allow. *)
let check ?schema ?target ?span ?(depth_limit = 4) (c : Clause.t) =
  let structural =
    unsafe ?span c @ disconnected ?span c @ singleton_vars ?span c
    @ duplicate_literals ?span c @ redundant_literals ?span c
    @ depth_exceeded ?span ~limit:depth_limit c
  in
  let schematic =
    match schema with
    | None -> []
    | Some s -> against_schema ?span ?target s c
  in
  structural @ schematic
