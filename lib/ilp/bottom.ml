(** Bottom-clause construction (Section 6.1).

    Starting from a ground target atom, the algorithm repeatedly
    scans the database for tuples containing in-play constants and
    adds them as ground literals; constants first seen at iteration
    [i] generate literals of depth at most [i+1]. The result is the
    {e saturation} (ground bottom clause); variabilizing it yields
    the bottom clause [⊥e] used by bottom-up learners.

    The [expand] hook is how Castor plugs its IND chase in
    (Section 7.1): whenever a tuple is admitted, [expand] may return
    further (relation, tuple) pairs to admit in the same iteration.

    {e Probe sets.} A saturation is a deterministic function of the
    answers to two kinds of read: [tuples_containing rel v] for every
    constant [v] it looks up, and the data probes of its [expand]
    hook. {!saturation_with_probes} also returns the values those
    reads were keyed on — every constant looked up, plus every value
    the hook reports through {!note_probe} — so that
    {!Coverage} can tell which deltas cannot reach a bottom clause.

    Stopping conditions: [depth] bounds the number of iterations (the
    classic parameter); [max_terms] bounds the number of distinct
    constants, which is Castor's schema-independent stop condition
    (distinct variables are preserved by (de)composition, depths are
    not — Example 6.2). [per_relation_cap] bounds how many literals of
    one relation symbol a single in-play constant may contribute per
    iteration (the paper uses 10 on IMDb). *)

open Castor_relational
open Castor_logic
module Obs = Castor_obs.Obs

let span_saturation = Obs.Span.create "ilp.bottom.saturation"

(* Static-analysis post-pass: literals of the variabilized bottom
   clause dropped because they are θ-subsumed by the rest of the
   clause (Clause_lint's absorbed-literal rule). Pruned literals never
   reach ARMG, shrinking the Subsume hot path; the counters make the
   win measurable in the benches. *)
let c_pruned_literals = Obs.Counter.create "analysis.pruned_literals"

let c_pruned_clauses = Obs.Counter.create "analysis.pruned_clauses"

type params = {
  depth : int;
  max_terms : int option;
  per_relation_cap : int;
  no_expand_domains : string list;
      (** attribute domains whose constants are not put on the
          frontier — the counterpart of ILP mode declarations for
          low-selectivity "attribute" values (phases, course levels,
          bond types, ...). Domains are attached to attributes, which
          (de)composition preserves, so the filter is itself schema
          independent. *)
  const_domains : string list;
      (** attribute domains whose constants survive variabilization —
          the counterpart of ILP [#]-mode (constant) declarations;
          this is what lets clauses like [genre(g, drama)] or
          [student(x, prelim, 3)] (Example 6.5) be expressed *)
}

let default_params =
  {
    depth = 2;
    max_terms = None;
    per_relation_cap = 10;
    no_expand_domains = [];
    const_domains = [];
  }

(* canonical, schema-independent sort key of a tuple / literal group:
   the multiset of its constants, sorted and printed *)
let tuple_key (tu : Tuple.t) =
  Array.to_list tu |> List.map Value.to_string |> List.sort compare
  |> String.concat "\x00"

(* The key is the SET of constants of the group's full chase closure:
   the closure is the reconstructed joined row, whose constant set is
   identical across (de)compositions, whereas literal multisets are
   not (a shared entity is stored once under a decomposed schema but
   repeated per joined row under a composed one). *)
let group_key (lits : Atom.t list) =
  List.concat_map
    (fun (a : Atom.t) -> List.map Value.to_string (Atom.constants a))
    lits
  |> List.sort_uniq compare |> String.concat "\x00"

(** Retries of a [max_terms]-truncated saturation with a doubled
    budget (see {!saturation}). *)
let c_budget_growths = Obs.Counter.create "ilp.saturation.budget_growths"

(** Saturations still truncated after the last budget doubling: their
    constant set may differ across (de)compositions, so Lemma 7.5 does
    not cover them. *)
let c_truncated = Obs.Counter.create "ilp.saturation.truncated"

(* The probe recorder of the saturation running on this domain, if
   any; {!saturation_with_probes} installs one for its own duration. *)
let probe_recorder : (Value.t, unit) Hashtbl.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(** [note_probe v] reports that the running saturation read data
    keyed on [v]. An [expand] hook that reads the database must report
    every value it binds a probe on ({!Castor_core.Plan.expand} does),
    or {!Coverage} may miss a delta that changes the saturation. A
    no-op outside {!saturation_with_probes}. *)
let note_probe v =
  match Domain.DLS.get probe_recorder with
  | Some seen -> Hashtbl.replace seen v ()
  | None -> ()

(* how many times a truncated saturation's budget may double before we
   accept the cut — 3 doublings = 8× the configured budget *)
let max_budget_growths = 3

(* One saturation pass at a fixed budget. Returns the ground clause
   plus whether the [max_terms] budget cut it short — i.e. the budget
   tripped while frontier constants were still pending and iterations
   remained, so a larger budget could admit more literals. *)
let saturate_once ~expand ?backend ~params inst (e : Atom.t) =
  (* The frontier neighborhood query always reads through the
     {!Backend} seam; the default wraps [inst] itself, and
     {!Coverage.build} passes its columnar snapshot of [inst]. Hits
     are canonically re-sorted below, so any backend serving the same
     tuple set is equivalent. *)
  let backend =
    match backend with Some b -> b | None -> Backend.of_instance inst
  in
  let lookup =
    let module B = (val backend : Backend.S) in
    B.tuples_containing
  in
  let schema = Instance.schema inst in
  let rels = List.map (fun (r : Schema.relation) -> r.Schema.rname) schema.Schema.relations in
  let expandable_pos =
    (* positions of each relation whose domain may join the frontier *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (r : Schema.relation) ->
        let flags =
          List.map
            (fun (a : Schema.attribute) ->
              not (List.mem a.Schema.domain params.no_expand_domains))
            r.Schema.attrs
        in
        Hashtbl.replace tbl r.Schema.rname (Array.of_list flags))
      schema.Schema.relations;
    tbl
  in
  let body = ref [] in
  (* keyed on the tuple itself: a printed key would merge r(e,5) with
     r(e,"5"), and s(e,"a, b","c") with s(e,"a","b, c") *)
  let present : (string * Tuple.t, unit) Hashtbl.t = Hashtbl.create 256 in
  let constants : (Value.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let n_constants () = Hashtbl.length constants in
  let pending_constants = ref [] in
  let note_constant v =
    if not (Hashtbl.mem constants v) then begin
      Hashtbl.replace constants v ();
      pending_constants := v :: !pending_constants
    end
  in
  Array.iter
    (function Term.Const v -> note_constant v | Term.Var _ -> ())
    e.Atom.args;
  let admit rel (tu : Tuple.t) =
    let key = (rel, tu) in
    if Hashtbl.mem present key then false
    else begin
      Hashtbl.replace present key ();
      let flags = Hashtbl.find expandable_pos rel in
      Array.iteri (fun i v -> if flags.(i) then note_constant v) tu;
      true
    end
  in
  let over_budget () =
    match params.max_terms with
    | Some m -> n_constants () >= m
    | None -> false
  in
  let truncated = ref false in
  (try
     for i = 1 to params.depth do
       if over_budget () then begin
         if !pending_constants <> [] then truncated := true;
         raise Exit
       end;
       (* canonical frontier order: by constant value *)
       let in_play = List.sort Value.compare !pending_constants in
       pending_constants := [];
       List.iter note_probe in_play;
       let groups = ref [] in
       List.iter
         (fun v ->
           List.iter
             (fun rel ->
               (* canonical hit order so per-relation caps select the
                  same data in every schema — and, via the total
                  tie-break, independently of the lookup provider's
                  enumeration order *)
               let hits =
                 List.map (fun tu -> (tuple_key tu, tu)) (lookup rel v)
                 |> List.sort (fun (ka, a) (kb, b) ->
                        let c = String.compare ka kb in
                        if c <> 0 then c else Tuple.compare a b)
                 |> List.map snd
               in
               let rec take n = function
                 | [] -> ()
                 | tu :: rest ->
                     if n <= 0 then ()
                     else begin
                       let was_new = admit rel tu in
                       if was_new then begin
                         (* IND chase: the group is the triggering
                            tuple plus its joining closure. The key is
                            computed over the WHOLE closure — even
                            tuples admitted earlier by other groups —
                            so it stays schema independent; only the
                            new literals are emitted. *)
                         let closure = expand rel tu in
                         let chased = List.filter (fun (r, t) -> admit r t) closure in
                         let all_lits =
                           Atom.of_tuple rel tu
                           :: List.map (fun (r, t) -> Atom.of_tuple r t) closure
                         in
                         let new_lits =
                           Atom.of_tuple rel tu
                           :: List.map (fun (r, t) -> Atom.of_tuple r t) chased
                         in
                         groups := (group_key all_lits, new_lits) :: !groups
                       end;
                       take (if was_new then n - 1 else n) rest
                     end
               in
               take params.per_relation_cap hits)
             rels)
         in_play;
       let sorted = List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !groups) in
       List.iter (fun (_, lits) -> List.iter (fun l -> body := l :: !body) lits) sorted;
       if over_budget () then begin
         if !pending_constants <> [] && i < params.depth then truncated := true;
         raise Exit
       end
     done
   with Exit -> ());
  (Clause.make e (List.rev !body), !truncated)

(** [saturation ?expand ~params inst e] builds the ground bottom
    clause of example [e] relative to [inst].

    Castor's ARMG and negative reduction need the literal order of
    saturations to {e correspond} across composition/decomposition
    (Lemmas 7.5 and 7.7 assume an order-preserving mapping between
    equivalent bottom clauses). Admission order as such is schema
    dependent — relation lists differ across schemas — so the literals
    of each iteration are emitted as {e groups} (a triggering tuple
    together with its IND-chase closure, i.e. one inclusion-class
    instance) sorted by the group's constant multiset, which is pure
    data and therefore identical across information-equivalent
    schemas.

    {e Adaptive budget}: a [max_terms] cut is itself schema
    {e dependent} — the same budget admits different constant sets
    under different decompositions (the fuzzer-found caveat in
    DESIGN.md), undermining the Lemma 7.5 correspondence exactly when
    the budget binds. So a saturation that tripped the budget with
    frontier work remaining is retried from scratch with the budget
    doubled, up to {!max_budget_growths} times or until it completes
    untruncated; retries are counted under
    [ilp.saturation.budget_growths], and a saturation still cut after
    the last doubling under [ilp.saturation.truncated]. *)
let saturation ?(expand = fun _ _ -> []) ?backend ~params inst (e : Atom.t) =
  Obs.Span.with_span span_saturation @@ fun () ->
  Obs.Counter.incr Stats.c_saturations;
  let rec go params growths =
    let clause, truncated = saturate_once ~expand ?backend ~params inst e in
    match params.max_terms with
    | Some m when truncated && growths < max_budget_growths ->
        Obs.Counter.incr c_budget_growths;
        go { params with max_terms = Some (2 * m) } (growths + 1)
    | _ ->
        if truncated then Obs.Counter.incr c_truncated;
        clause
  in
  go params 0

(** [saturation_with_probes ?expand ?backend ~params inst e] is
    [saturation] together with its probe set: the distinct values its
    data reads were keyed on, over every budget attempt, sorted.

    A delta tuple can change the answer of [tuples_containing rel v]
    only if it holds [v], and the answer of a chase probe only if it
    holds every bound value. So when no tuple of a delta batch holds a
    probe value, every read of every attempt answers as before, each
    attempt takes the same path, and the saturation — probe set
    included — is unchanged. *)
let saturation_with_probes ?expand ?backend ~params inst e =
  let seen = Hashtbl.create 64 in
  let outer = Domain.DLS.get probe_recorder in
  Domain.DLS.set probe_recorder (Some seen);
  let clause =
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set probe_recorder outer)
      (fun () -> saturation ?expand ?backend ~params inst e)
  in
  let probes = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort Value.compare probes;
  (clause, probes)

(** [variabilize ~schema ~params c] replaces constants by variables
    (one fresh variable per distinct constant), except at positions
    whose attribute domain is listed in [params.const_domains] — those
    keep their constant, as with ILP constant-mode declarations. Head
    constants are always variabilized. *)
let variabilize ~schema ~params (c : Clause.t) =
  let module VM = Value.Map in
  let table = ref VM.empty in
  let counter = ref 0 in
  let var_for const =
    match VM.find_opt const !table with
    | Some v -> v
    | None ->
        let v = Printf.sprintf "V%d" !counter in
        incr counter;
        table := VM.add const v !table;
        v
  in
  let keep_pos = Hashtbl.create 16 in
  List.iter
    (fun (r : Schema.relation) ->
      Hashtbl.replace keep_pos r.Schema.rname
        (Array.of_list
           (List.map
              (fun (a : Schema.attribute) ->
                List.mem a.Schema.domain params.const_domains)
              r.Schema.attrs)))
    schema.Schema.relations;
  let conv_head (a : Atom.t) =
    {
      a with
      Atom.args =
        Array.map
          (function
            | Term.Const v -> Term.Var (var_for v)
            | Term.Var _ as t -> t)
          a.Atom.args;
    }
  in
  let conv_body (a : Atom.t) =
    let keep =
      Option.value
        ~default:(Array.make (Atom.arity a) false)
        (Hashtbl.find_opt keep_pos a.Atom.rel)
    in
    {
      a with
      Atom.args =
        Array.mapi
          (fun i t ->
            match t with
            | Term.Const v when not keep.(i) -> Term.Var (var_for v)
            | t -> t)
          a.Atom.args;
    }
  in
  { Clause.head = conv_head c.Clause.head; body = List.map conv_body c.Clause.body }

(** [prune_redundant bc] drops statically redundant literals from a
    variabilized bottom clause — the analysis pass's provably-safe
    pruning: removed literals are θ-subsumed by the rest of the
    clause, so the result is θ-equivalent to [bc] and every coverage
    vector is unchanged. Counted under [analysis.pruned_literals]. *)
let prune_redundant (bc : Clause.t) =
  let pruned, n = Castor_analysis.Clause_lint.prune_redundant bc in
  if n > 0 then begin
    Obs.Counter.add c_pruned_literals n;
    Obs.Counter.incr c_pruned_clauses
  end;
  pruned

(** [bottom_clause ?expand ?backend ?prune ~params inst e] is the
    variabilized bottom clause [⊥e]. With [~prune:true] the statically
    redundant literals are dropped before the clause is handed to
    ARMG. *)
let bottom_clause ?expand ?backend ?(prune = false) ~params inst e =
  let sat = saturation ?expand ?backend ~params inst e in
  let bc = variabilize ~schema:(Instance.schema inst) ~params sat in
  if prune then prune_redundant bc else bc
