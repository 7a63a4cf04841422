(** AutoMode-style mode inference (Picado et al.: language bias can be
    derived from schema constraints instead of hand-written mode
    declarations).

    For every relation the analyzer derives a mode: which argument
    positions act as {e inputs} (key attributes and IND-linked join
    columns — the positions a literal can be entered through), which
    as {e outputs} (dependent attributes, bound by the tuple once the
    inputs are), and which hold {e constants} (attributes whose domain
    is declared low-selectivity, the counterpart of ILP [#]-modes).
    The inferred modes are then used to lint a learning-problem
    configuration: a target whose attribute domains no relation can
    produce, or constant pools over domains the schema does not have,
    make the learner silently unable to bind its head variables.

    Rule ids: [mode/target-domain-unknown], [mode/const-domain-unknown],
    [mode/no-expand-domain-unknown], [mode/no-input-positions],
    [mode/saturation-budget]. *)

open Castor_relational

type io = Input | Output | Constant

type arg_mode = { attr : string; domain : string; io : io }

type t = {
  rel : string;
  args : arg_mode list;
  key : string list;  (** the FD-derived minimal key used for inputs *)
}

let io_marker = function Input -> "+" | Output -> "-" | Constant -> "#"

let pp ppf m =
  Fmt.pf ppf "%s(%a)" m.rel
    Fmt.(
      list ~sep:(any ", ") (fun ppf a ->
          pf ppf "%s%s:%s" (io_marker a.io) a.attr a.domain))
    m.args

let to_string m = Fmt.str "%a" pp m

(** [infer ?const_domains schema] derives a mode per relation:

    - a minimal FD-derived candidate key (shortest, ties by order)
      marks its attributes as inputs;
    - attributes appearing on either side of any IND are join columns,
      also inputs;
    - attributes whose domain is in [const_domains] are constants;
    - everything else is an output. *)
let infer ?(const_domains = []) (schema : Schema.t) =
  List.map
    (fun (r : Schema.relation) ->
      let sort = List.map (fun (a : Schema.attribute) -> a.Schema.aname) r.Schema.attrs in
      let fds =
        List.filter
          (fun (fd : Schema.fd) -> String.equal fd.Schema.fd_rel r.Schema.rname)
          schema.Schema.fds
      in
      let key =
        match
          List.stable_sort
            (fun a b -> compare (List.length a) (List.length b))
            (Normalize.candidate_keys fds ~sort)
        with
        | k :: _ when fds <> [] -> k
        | _ -> []
      in
      let ind_attrs =
        List.concat_map
          (fun (i : Schema.ind) ->
            (if String.equal i.Schema.sub_rel r.Schema.rname then i.Schema.sub_attrs else [])
            @
            if String.equal i.Schema.sup_rel r.Schema.rname then i.Schema.sup_attrs else [])
          schema.Schema.inds
      in
      let args =
        List.map
          (fun (a : Schema.attribute) ->
            let io =
              if List.mem a.Schema.domain const_domains then Constant
              else if List.mem a.Schema.aname key || List.mem a.Schema.aname ind_attrs then
                Input
              else Output
            in
            { attr = a.Schema.aname; domain = a.Schema.domain; io })
          r.Schema.attrs
      in
      { rel = r.Schema.rname; args; key })
    schema.Schema.relations

(** Domains some relation can bind (i.e. appearing at a non-constant
    position of some relation). *)
let bindable_domains modes =
  List.concat_map
    (fun m -> List.filter_map (fun a -> if a.io = Constant then None else Some a.domain) m.args)
    modes
  |> List.sort_uniq String.compare

let all_domains (schema : Schema.t) =
  List.concat_map
    (fun (r : Schema.relation) ->
      List.map (fun (a : Schema.attribute) -> a.Schema.domain) r.Schema.attrs)
    schema.Schema.relations
  |> List.sort_uniq String.compare

(** [lint_config ?const_domains ~target ~const_pool_domains
    ~no_expand_domains schema] checks a learning-problem configuration
    against the inferred modes. *)
let lint_config ?const_domains ~(target : Schema.relation) ~const_pool_domains
    ~no_expand_domains (schema : Schema.t) =
  let modes = infer ?const_domains schema in
  let bindable = bindable_domains modes in
  let known = all_domains schema in
  let target_diags =
    List.filter_map
      (fun (a : Schema.attribute) ->
        if List.mem a.Schema.domain bindable then None
        else
          Some
            (Diagnostic.make ~rule:"mode/target-domain-unknown"
               ~severity:Diagnostic.Error
               ~subject:(Fmt.str "target %s" target.Schema.rname)
               "target attribute %s has domain %s which no schema relation can \
                bind: its head variable can never occur in a safe body"
               a.Schema.aname a.Schema.domain))
      target.Schema.attrs
  in
  let pool_diags =
    List.filter_map
      (fun dom ->
        if List.mem dom known then None
        else
          Some
            (Diagnostic.make ~rule:"mode/const-domain-unknown"
               ~severity:Diagnostic.Warning ~subject:("const pool " ^ dom)
               "constant pool declared for domain %s, which no relation attribute \
                uses"
               dom))
      (List.sort_uniq String.compare const_pool_domains)
  in
  let frontier_diags =
    List.filter_map
      (fun dom ->
        if List.mem dom known then None
        else
          Some
            (Diagnostic.make ~rule:"mode/no-expand-domain-unknown"
               ~severity:Diagnostic.Warning ~subject:("no-expand " ^ dom)
               "frontier filter names domain %s, which no relation attribute uses"
               dom))
      (List.sort_uniq String.compare no_expand_domains)
  in
  let no_input_diags =
    List.filter_map
      (fun m ->
        if m.args = [] || List.exists (fun a -> a.io = Input) m.args then None
        else
          Some
            (Diagnostic.make ~rule:"mode/no-input-positions"
               ~severity:Diagnostic.Info ~subject:m.rel
               "relation %s has no key or IND-linked attribute: literals on it \
                cannot be entered through a bound variable (inferred mode %s)"
               m.rel (to_string m)))
      modes
  in
  target_diags @ pool_diags @ frontier_diags @ no_input_diags

(* ---------------- saturation budget estimate ----------------------- *)

(** Saturation and search budget of a learning problem, passed as
    plain values so the analysis layer stays independent of
    {!Castor_ilp}. *)
type budget = {
  depth : int;  (** IND-chase saturation iterations *)
  max_terms : int option;  (** variable budget; [None] = unbounded *)
  per_relation_cap : int;
      (** literals admitted per (constant, relation) pair *)
  max_steps : int;  (** subsumption step budget of coverage tests *)
}

(* keep the growth model's arithmetic away from overflow *)
let clamp v = min v 1_000_000_000

(** [lint_budget ~budget ~target schema] estimates the literal and
    distinct-constant counts of a saturation (the ROADMAP's
    "literal-count/variable-budget estimates against [max_terms]") and
    flags configurations whose bottom clauses are likely to run past
    the subsumption step budget during coverage testing. Such tests
    are still exact — coverage finishes them without a budget — but
    slow.

    The model is deliberately crude — each frontier constant admits up
    to [per_relation_cap] literals per relation, each literal
    introduces (arity - 1) fresh constants, and the saturation stops
    once the term budget binds — but it is monotone in every
    parameter, so it separates default-sized problems from
    exhaustion-prone ones. *)
let lint_budget ~(budget : budget) ~(target : Schema.relation)
    (schema : Schema.t) =
  let sum_caps =
    clamp
      (List.fold_left
         (fun acc (_ : Schema.relation) -> acc + budget.per_relation_cap)
         0 schema.Schema.relations)
  in
  let branch =
    clamp
      (List.fold_left
         (fun acc (r : Schema.relation) ->
           acc
           + (budget.per_relation_cap * max 0 (List.length r.Schema.attrs - 1)))
         0 schema.Schema.relations)
  in
  let bound = Option.value ~default:max_int budget.max_terms in
  let frontier = ref (List.length target.Schema.attrs) in
  let terms = ref !frontier in
  let lits = ref 0 in
  (try
     for _ = 1 to budget.depth do
       if !terms >= bound then raise Exit;
       lits := clamp (!lits + (!frontier * sum_caps));
       frontier := clamp (!frontier * branch);
       terms := clamp (!terms + !frontier)
     done
   with Exit -> ());
  let subject = Fmt.str "target %s" target.Schema.rname in
  match budget.max_terms with
  | None ->
      (* without a declared variable budget the literal estimate is
         data-bounded, not schema-bounded; flag only growth that no
         realistic instance keeps small *)
      if !terms > 4096 then
        [
          Diagnostic.make ~rule:"mode/saturation-budget"
            ~severity:Diagnostic.Warning ~subject
            "no variable budget (max_terms) and the chase can reach ~%d \
             distinct constants by depth %d: saturations are effectively \
             unbounded; set max_terms to keep coverage tests tractable"
            !terms budget.depth;
        ]
      else []
  | Some declared ->
      let est_terms = min !terms declared in
      if clamp (!lits * est_terms) > budget.max_steps then
        [
          Diagnostic.make ~rule:"mode/saturation-budget"
            ~severity:Diagnostic.Warning ~subject
            "estimated bottom clauses (~%d literals over ~%d terms) can \
             run past the %d-step subsumption budget; coverage then \
             finishes those tests exactly without a budget, only more \
             slowly: consider lowering max_terms or per_relation_cap"
            !lits est_terms budget.max_steps;
        ]
      else []
