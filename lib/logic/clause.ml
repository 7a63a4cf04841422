(** Definite Horn clauses [T(u) <- L1(u1), ..., Ln(un)].

    The body is an ordered list: ProGolem and Castor treat clauses as
    ordered clauses (Section 6.4), and the bottom-clause construction
    order is what their ARMG operators rely on. Two clauses that
    differ only in body order are θ-equivalent, and all equivalence
    checks go through subsumption, so keeping the list ordered loses
    nothing. *)

type t = { head : Atom.t; body : Atom.t list }

(** A Horn definition: a set of clauses sharing the same head relation
    (a union of conjunctive queries). *)
type definition = { target : string; clauses : t list }

let make head body = { head; body }

(** [equal a b] — the same head and the same body literals in the
    same order (structural, not up to renaming or θ-equivalence). *)
let equal a b = Atom.equal a.head b.head && List.equal Atom.equal a.body b.body

let length c = List.length c.body

(** Distinct variable names of the clause, head first then body in
    order of first occurrence. *)
let variables c =
  let add acc a =
    List.fold_left
      (fun (seen, order) v ->
        if List.mem v seen then (seen, order) else (v :: seen, v :: order))
      acc (Atom.vars a)
  in
  let _, rev = List.fold_left add (add ([], []) c.head) c.body in
  List.rev rev

let num_variables c = List.length (variables c)

(** Variables appearing in the head — the paper's head-variables. *)
let head_vars c = Atom.vars c.head

(** [is_safe c] holds when every head variable occurs in the body
    (Section 7.3). *)
let is_safe c =
  let body_vars =
    List.fold_left
      (fun s a -> Term.Set.union s (Atom.var_set a))
      Term.Set.empty c.body
  in
  List.for_all (fun v -> Term.Set.mem (Term.Var v) body_vars) (head_vars c)

let apply_subst s c =
  { head = Subst.apply_atom s c.head; body = List.map (Subst.apply_atom s) c.body }

(** [head_connected c] removes body literals that are not connected to
    the head through a chain of shared variables, preserving order —
    the clean-up step of ARMG (Algorithm 3). Fully ground literals are
    kept: they are self-contained conditions on the database, not
    dangling existentials, and dropping them would change the clause's
    meaning. *)
let head_connected c =
  let reached = ref (Atom.var_set c.head) in
  let changed = ref true in
  let kept = Array.make (List.length c.body) false in
  let body = Array.of_list c.body in
  while !changed do
    changed := false;
    Array.iteri
      (fun i a ->
        if not kept.(i) then begin
          let vs = Atom.var_set a in
          if
            Term.Set.is_empty vs
            || not (Term.Set.is_empty (Term.Set.inter vs !reached))
          then begin
            kept.(i) <- true;
            reached := Term.Set.union !reached vs;
            changed := true
          end
        end)
      body
  done;
  {
    c with
    body =
      List.filteri (fun i _ -> kept.(i)) (Array.to_list body |> List.map Fun.id);
  }

(** [variabilize c] replaces every constant by a variable, one fresh
    variable per distinct constant (the bottom-clause variabilization
    step, Section 6.1). Returns the new clause and the constant-to-
    variable mapping. *)
let variabilize ?(prefix = "V") c =
  let module VM = Castor_relational.Value.Map in
  let table = ref VM.empty in
  let counter = ref 0 in
  let var_for const =
    match VM.find_opt const !table with
    | Some v -> v
    | None ->
        let v = Printf.sprintf "%s%d" prefix !counter in
        incr counter;
        table := VM.add const v !table;
        v
  in
  let conv (a : Atom.t) =
    {
      a with
      Atom.args =
        Array.map
          (function
            | Term.Const c -> Term.Var (var_for c)
            | Term.Var _ as v -> v)
          a.Atom.args;
    }
  in
  let c' = { head = conv c.head; body = List.map conv c.body } in
  (c', !table)

(** [rename_apart suffix c] renames every variable by appending
    [suffix], used to keep clause pairs variable-disjoint before lgg. *)
let rename_apart suffix c =
  let ren = function
    | Term.Var v -> Term.Var (v ^ suffix)
    | Term.Const _ as t -> t
  in
  let conv (a : Atom.t) = { a with Atom.args = Array.map ren a.Atom.args } in
  { head = conv c.head; body = List.map conv c.body }

(** Removes duplicate body literals, keeping first occurrences.
    Literals are compared structurally ({!Atom.equal}), so a variable
    and a string constant of the same spelling, or [5] and ["5"], stay
    apart. *)
let dedup_body c =
  let seen = ref Atom.Set.empty in
  let body =
    List.filter
      (fun a ->
        if Atom.Set.mem a !seen then false
        else begin
          seen := Atom.Set.add a !seen;
          true
        end)
      c.body
  in
  { c with body }

(** [variant_key c] is the coverage-memo key: two clauses get equal
    keys exactly when they are equal up to a renaming of variables —
    same head, same body literals in the same order. Variables are
    renamed [_0, _1, ...] in order of first occurrence (head, then
    body in clause order); integer constants render as [#n] and string
    constants quoted and escaped, so no constant can alias a variable
    or a constant of the other kind; a relation name containing ['(']
    or ['"'] is quoted too. Every field is self-delimiting, so the
    rendering is injective, and a memo keyed by it is sound. Body
    order is part of the key: a permuted clause is θ-equivalent but
    keys apart, which costs a memo hit, never a wrong answer. One
    buffer pass: no sorting and no refinement rounds. *)
let variant_key (c : t) =
  let module Value = Castor_relational.Value in
  let buf = Buffer.create 128 in
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let add_quoted s =
    Buffer.add_char buf '"';
    Buffer.add_string buf (String.escaped s);
    Buffer.add_char buf '"'
  in
  let add_atom (a : Atom.t) =
    if String.contains a.Atom.rel '(' || String.contains a.Atom.rel '"' then
      add_quoted a.Atom.rel
    else Buffer.add_string buf a.Atom.rel;
    Buffer.add_char buf '(';
    Array.iteri
      (fun pos arg ->
        if pos > 0 then Buffer.add_char buf ',';
        match arg with
        | Term.Var v ->
            let id =
              match Hashtbl.find_opt ids v with
              | Some i -> i
              | None ->
                  let i = Hashtbl.length ids in
                  Hashtbl.add ids v i;
                  i
            in
            Buffer.add_char buf '_';
            Buffer.add_string buf (string_of_int id)
        | Term.Const (Value.Int n) ->
            Buffer.add_char buf '#';
            Buffer.add_string buf (string_of_int n)
        | Term.Const (Value.Str s) -> add_quoted s)
      a.Atom.args;
    Buffer.add_char buf ')'
  in
  add_atom c.head;
  List.iter
    (fun a ->
      Buffer.add_char buf '|';
      add_atom a)
    c.body;
  Buffer.contents buf

let pp ppf c =
  if c.body = [] then Fmt.pf ppf "%a." Atom.pp c.head
  else
    Fmt.pf ppf "@[<hov2>%a :-@ %a.@]" Atom.pp c.head
      Fmt.(list ~sep:(any ",@ ") Atom.pp)
      c.body

let to_string c = Fmt.str "%a" pp c

let pp_definition ppf (d : definition) =
  if d.clauses = [] then Fmt.pf ppf "(empty definition for %s)" d.target
  else Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp) d.clauses

let definition_to_string d = Fmt.str "%a" pp_definition d
