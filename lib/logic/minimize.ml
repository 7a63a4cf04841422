(** Clause minimization by redundant-literal elimination
    (Section 7.5.5).

    A body literal [L] is redundant in [C] when [C] θ-subsumes
    [C − {L}] (the converse always holds since [C − {L}] ⊆ [C]); then
    [C ≡ C − {L}].

    Full θ-reduction is NP-hard, so — like the paper, which uses a
    polynomial-time approximation of the subsumption test — we use a
    sound approximation with two tiers:

    - the {e absorbed-literal} rule: [L] is redundant when some other
      literal [L'] of the same relation matches [L] under a
      substitution that only renames variables {e private} to [L]
      (variables occurring nowhere else in the clause). Extending that
      substitution with the identity everywhere else witnesses
      [Cθ ⊆ C − {L}]. This runs in O(n·m·arity) per pass and catches
      the bulk of bottom-clause redundancy;
    - optionally, for clauses up to [exact_below] literals, a full
      budgeted subsumption test per literal.

    A timed-out or failed test conservatively keeps the literal, so
    the result is always equivalent to the input. *)

(* occurrence count of each variable across head and body *)
let var_counts (c : Clause.t) =
  let tbl = Hashtbl.create 64 in
  let note (a : Atom.t) =
    List.iter
      (fun v ->
        Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
      (Atom.vars a)
  in
  note c.Clause.head;
  List.iter note c.Clause.body;
  tbl

(* does [l'] absorb [l], renaming only variables private to [l]? *)
let absorbs counts (l : Atom.t) (l' : Atom.t) =
  String.equal l.Atom.rel l'.Atom.rel
  && Array.length l.Atom.args = Array.length l'.Atom.args
  &&
  let sigma = Hashtbl.create 4 in
  let ok = ref true in
  Array.iteri
    (fun i t ->
      if !ok then
        match t, l'.Atom.args.(i) with
        | Term.Const a, Term.Const b -> if not (Castor_relational.Value.equal a b) then ok := false
        | Term.Var v, t' -> (
            (* count of a private var inside l may exceed 1 if it
               repeats within l itself; private = all occurrences in l *)
            let occurs_in_l =
              List.length (List.filter (String.equal v) (Atom.vars l))
            in
            let total = Option.value ~default:0 (Hashtbl.find_opt counts v) in
            if total > occurs_in_l then begin
              (* v occurs elsewhere: must map to itself *)
              if not (Term.equal t t') then ok := false
            end
            else
              match Hashtbl.find_opt sigma v with
              | Some prev -> if not (Term.equal prev t') then ok := false
              | None -> Hashtbl.replace sigma v t')
        | Term.Const _, Term.Var _ -> ok := false)
    l.Atom.args;
  !ok

(** [reduce_absorbed c] applies the absorbed-literal rule to a
    fixpoint (linear passes). *)
let reduce_absorbed (c : Clause.t) =
  let changed = ref true in
  let current = ref c in
  while !changed do
    changed := false;
    let counts = var_counts !current in
    let body = Array.of_list !current.Clause.body in
    let removed = Array.make (Array.length body) false in
    Array.iteri
      (fun i l ->
        if not removed.(i) then
          Array.iteri
            (fun j l' ->
              if i <> j && (not removed.(i)) && not removed.(j) then
                if absorbs counts l l' then begin
                  removed.(i) <- true;
                  changed := true
                end)
            body)
      body;
    current :=
      {
        !current with
        Clause.body =
          List.filteri (fun i _ -> not removed.(i)) (Array.to_list body);
      }
  done;
  !current

(** [reduce ?max_steps ?exact_below c] — absorbed-literal passes, then
    (for clauses shorter than [exact_below]) the exact budgeted
    reduction. *)
let reduce ?(max_steps = 8_000) ?(exact_below = 40) (c : Clause.t) =
  let c = reduce_absorbed c in
  if Clause.length c >= exact_below then c
  else begin
    let removed = ref true in
    let current = ref c in
    while !removed do
      removed := false;
      let body = Array.of_list !current.Clause.body in
      let n = Array.length body in
      (* every test of this scan has [!current] on the clause side,
         and [!current] less one literal on the target side *)
      let pattern = Subsume.compile !current in
      let without_lit = Subsume.leave_out (Subsume.prepare !current) !current in
      (try
         for i = n - 1 downto 0 do
           if
             Subsume.subsumes_compiled ~max_steps pattern (without_lit i)
             = Some true
           then begin
             current :=
               {
                 !current with
                 Clause.body =
                   Array.to_list body |> List.filteri (fun j _ -> j <> i);
               };
             removed := true;
             raise Exit (* restart scan on the shrunk clause *)
           end
         done
       with Exit -> ())
    done;
    !current
  end

(** [reduction_ratio c] reports how much {!reduce} shrinks [c]:
    [(original_length, reduced_length)] — the statistic the paper
    quotes ("reduces the size of bottom-clauses ... by 13–19%"). *)
let reduction_ratio ?max_steps ?exact_below c =
  let r = reduce ?max_steps ?exact_below c in
  (Clause.length c, Clause.length r)
