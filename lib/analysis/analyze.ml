(** Entry points of the static-analysis pass, plus the rule catalog.

    [castor_cli analyze], the pre-learning gate in
    {!Castor_learners.Problem} and the bottom-clause pruner in
    {!Castor_ilp.Bottom} all go through this module, so the set of
    enforced invariants lives in one place. *)

open Castor_relational
open Castor_logic

(** Catalog entry: stable id, severity the rule fires at, and a
    one-line description (rendered by [castor_cli analyze --rules]). *)
type rule = { id : string; severity : Diagnostic.severity; doc : string }

let rules : rule list =
  [
    (* clause lints *)
    { id = "clause/unsafe"; severity = Error;
      doc = "a head variable never occurs in the body (range restriction fails, Section 7.3)" };
    { id = "clause/disconnected"; severity = Warning;
      doc = "a body literal is not reachable from the head through shared variables" };
    { id = "clause/singleton-var"; severity = Info;
      doc = "a variable occurs exactly once in the clause (unused existential, likely a typo)" };
    { id = "clause/duplicate-literal"; severity = Warning;
      doc = "a body literal appears more than once verbatim" };
    { id = "clause/redundant-literal"; severity = Warning;
      doc = "a body literal is θ-subsumed by the rest of the clause (Section 7.5.5)" };
    { id = "clause/determinacy-depth"; severity = Warning;
      doc = "the estimated join depth exceeds the saturation depth bound" };
    { id = "clause/unknown-relation"; severity = Error;
      doc = "a literal uses a relation the schema does not declare" };
    { id = "clause/arity-mismatch"; severity = Error;
      doc = "a literal's arity differs from the declared relation arity" };
    { id = "clause/domain-conflict"; severity = Warning;
      doc = "one variable is used at attribute positions of different domains" };
    { id = "parse/error"; severity = Error;
      doc = "the input failed to parse (message carries line and column)" };
    (* schema lints *)
    { id = "schema/duplicate-relation"; severity = Error;
      doc = "a relation symbol is declared twice" };
    { id = "schema/unknown-relation"; severity = Error;
      doc = "an FD or IND references an undeclared relation" };
    { id = "schema/unknown-attribute"; severity = Error;
      doc = "an FD or IND references an attribute outside the relation's sort" };
    { id = "schema/ind-arity-mismatch"; severity = Error;
      doc = "the two sides of an IND list different numbers of attributes" };
    { id = "schema/ind-domain-mismatch"; severity = Warning;
      doc = "an IND links attributes of different domains" };
    { id = "schema/cyclic-class"; severity = Error;
      doc = "an inclusion class joins cyclically (Proposition 7.4 precondition fails)" };
    { id = "schema/subset-ind-cycle"; severity = Warning;
      doc = "subset INDs form a directed cycle, so the subset-mode chase is unbounded" };
    { id = "schema/fd-ind-mismatch"; severity = Warning;
      doc = "an FD inside an IND-with-equality's attributes is not implied on the other side" };
    { id = "schema/trivial-fd"; severity = Info;
      doc = "an FD with rhs ⊆ lhs constrains nothing" };
    (* transformation lints *)
    { id = "transform/unknown-relation"; severity = Error;
      doc = "a (de)composition references an undeclared relation" };
    { id = "transform/unknown-attribute"; severity = Error;
      doc = "a decomposition part lists an attribute outside the relation's sort" };
    { id = "transform/parts-dont-cover"; severity = Error;
      doc = "decomposition parts do not cover the relation's sort (Definition 4.1)" };
    { id = "transform/cyclic-join"; severity = Error;
      doc = "the (re)construction join is cyclic (GYO precondition fails)" };
    { id = "transform/disconnected-join"; severity = Error;
      doc = "a composed part shares no attribute with the preceding parts" };
    (* mode lints *)
    { id = "mode/target-domain-unknown"; severity = Error;
      doc = "a target attribute's domain cannot be bound by any schema relation" };
    { id = "mode/const-domain-unknown"; severity = Warning;
      doc = "a constant pool names a domain no relation attribute uses" };
    { id = "mode/no-expand-domain-unknown"; severity = Warning;
      doc = "a frontier filter names a domain no relation attribute uses" };
    { id = "mode/no-input-positions"; severity = Info;
      doc = "a relation has no key or IND-linked attribute to enter literals through" };
    { id = "mode/saturation-budget"; severity = Warning;
      doc = "estimated saturation literal/variable counts against max_terms predict subsumption budget exhaustion; Problem.make's gate also reports saturations still truncated after the last budget doubling" };
    (* source lints (AST engine, lib/analysis/ast_lint) *)
    { id = "backend/direct-instance-access"; severity = Error;
      doc = "OCaml source performs Instance/Store lookups directly instead of reading through the Backend seam" };
    { id = "par/shared-mutable-state"; severity = Error;
      doc = "a mutable global or captured mutable field is reachable from worker-domain code without Atomic/Mutex/Domain.DLS protection" };
    { id = "par/swallowed-fatal"; severity = Error;
      doc = "a wildcard exception handler in a spawning module can absorb Out_of_memory/Stack_overflow instead of re-raising" };
    { id = "gen/unchecked-mutation"; severity = Warning;
      doc = "backend mutation next to cached Coverage reads without consulting the generation counter" };
    { id = "seed/ambient-randomness"; severity = Error;
      doc = "global-state Random calls outside the CASTOR_TEST_SEED plumbing break run reproducibility" };
    (* import lints *)
    { id = "import/example-relation"; severity = Error;
      doc = "an imported example's relation differs from the declared target" };
    { id = "import/example-arity"; severity = Error;
      doc = "an imported example's arity differs from the target declaration" };
    { id = "import/target-shadows-relation"; severity = Warning;
      doc = "the declared target shares its name with a schema relation" };
    { id = "import/duplicate-example"; severity = Warning;
      doc = "the same example atom is listed more than once with one label" };
    { id = "import/conflicting-label"; severity = Error;
      doc = "one example atom is labeled both positive and negative" };
  ]

let find_rule id = List.find_opt (fun r -> String.equal r.id id) rules

(* ---------------- aggregate checks --------------------------------- *)

let schema = Schema_lint.check

let transform = Schema_lint.check_transform

let clause = Clause_lint.check

(** [source ?path text] — the OCaml-source lints (AST engine:
    [backend/*], [par/*], [gen/*], [seed/*]) over one file. *)
let source = Source_lint.check

(** [sources files] — the OCaml-source lints over a whole [(path,
    text)] set at once, so cross-module rules (worker closures
    reaching another module's globals) see the full program. Returns
    per-path diagnostic groups in input order. *)
let sources = Source_lint.check_files

(** [definition ?schema ?target ?depth_limit d] lints every clause of
    a Horn definition. *)
let definition ?schema ?target ?depth_limit (def : Clause.definition) =
  List.concat_map (fun c -> clause ?schema ?target ?depth_limit c) def.Clause.clauses

(** [clauses_text ?schema ?target ?depth_limit text] parses clauses
    from [text] and lints each with its source span attached; a parse
    failure becomes a single [clause/unknown-relation]-independent
    error diagnostic carrying the parser's position message. *)
let clauses_text ?schema ?target ?depth_limit text =
  match Parse.definition_spanned text with
  | exception Castor_relational.Lexer.Error msg ->
      [
        Diagnostic.make ~rule:"parse/error" ~severity:Diagnostic.Error
          ~subject:"input" "%s" msg;
      ]
  | spanned ->
      List.concat_map
        (fun (c, pos) ->
          clause ?schema ?target ?depth_limit
            ~span:(Diagnostic.span_of_pos pos) c)
        spanned

(** [problem_config ...] — the pre-learning gate body: schema lints
    plus mode lints of the learner configuration. [budget], when
    given, adds the saturation/search budget estimate
    ([mode/saturation-budget]). *)
let problem_config ?mode ?budget ~(target : Schema.relation) ~const_pool_domains
    ~no_expand_domains (s : Schema.t) =
  schema ?mode s
  @ Modes.lint_config ~const_domains:no_expand_domains ~target ~const_pool_domains
      ~no_expand_domains s
  @
  match budget with
  | None -> []
  | Some budget -> Modes.lint_budget ~budget ~target s

(** [dataset_checks ~schema ~variants ~target ~const_pool_domains
    ~no_expand_domains ()] lints a dataset: base schema, every variant
    transformation (against the base schema) and resulting schema, and
    the problem configuration. Returns labelled groups for display. *)
let dataset_checks ?mode ?budget ~(base : Schema.t)
    ~(variants : (string * Transform.t) list) ~(target : Schema.relation)
    ~const_pool_domains ~no_expand_domains () =
  let base_diags =
    ( "schema (base)",
      problem_config ?mode ?budget ~target ~const_pool_domains
        ~no_expand_domains base )
  in
  let variant_diags =
    List.filter_map
      (fun (vname, tr) ->
        if tr = [] then None
        else
          let tds = transform base tr in
          let sds =
            if Diagnostic.has_errors tds then []
            else
              match Transform.apply_schema base tr with
              | s -> schema ?mode s
              | exception _ -> []
          in
          Some ("variant " ^ vname, tds @ sds))
      variants
  in
  base_diags :: variant_diags

(** [import_examples ~schema ~target labeled] lints the example section
    of an imported dataset: every example must be an atom of the
    declared target (name and arity), the target must not shadow a
    schema relation, no atom may be listed twice, and no atom may carry
    both labels. [labeled] pairs each example with its label ([true] =
    positive) and its source span in [examples.castor]. *)
let import_examples ~(schema : Schema.t) ~(target : Schema.relation)
    (labeled : (bool * Atom.t * Diagnostic.span option) list) =
  let d = Diagnostic.make in
  let shadow =
    if
      List.exists
        (fun (r : Schema.relation) -> String.equal r.Schema.rname target.Schema.rname)
        schema.Schema.relations
    then
      [
        d ~rule:"import/target-shadows-relation" ~severity:Diagnostic.Warning
          ~subject:target.Schema.rname
          "target %s shares its name with a schema relation; the batched \
           coverage kernel is disabled for shadowed targets"
          target.Schema.rname;
      ]
    else []
  in
  let tarity = List.length target.Schema.attrs in
  let seen : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let per_example =
    List.concat_map
      (fun (is_pos, (a : Atom.t), span) ->
        let subject = Atom.to_string a in
        let shape =
          if not (String.equal a.Atom.rel target.Schema.rname) then
            [
              d ?span ~rule:"import/example-relation" ~severity:Diagnostic.Error
                ~subject "example relation %s does not match target %s"
                a.Atom.rel target.Schema.rname;
            ]
          else if Atom.arity a <> tarity then
            [
              d ?span ~rule:"import/example-arity" ~severity:Diagnostic.Error
                ~subject "example has arity %d but target %s declares %d"
                (Atom.arity a) target.Schema.rname tarity;
            ]
          else []
        in
        let dup =
          match Hashtbl.find_opt seen subject with
          | None ->
              Hashtbl.add seen subject is_pos;
              []
          | Some prev when prev = is_pos ->
              [
                d ?span ~rule:"import/duplicate-example"
                  ~severity:Diagnostic.Warning ~subject
                  "example listed more than once as %s"
                  (if is_pos then "pos" else "neg");
              ]
          | Some _ ->
              [
                d ?span ~rule:"import/conflicting-label"
                  ~severity:Diagnostic.Error ~subject
                  "example labeled both pos and neg";
              ]
        in
        shape @ dup)
      labeled
  in
  shadow @ per_example

(** [import_schema ~spans schema] — the schema lints with declaration
    positions from {!Castor_relational.Text.parse_schema_spanned}
    attached to diagnostics whose subject is a relation name. *)
let import_schema ~spans (s : Schema.t) =
  List.map
    (fun (diag : Diagnostic.t) ->
      match (diag.Diagnostic.span, List.assoc_opt diag.Diagnostic.subject spans) with
      | None, Some pos -> { diag with Diagnostic.span = Some (Diagnostic.span_of_pos pos) }
      | _ -> diag)
    (schema s)
