(** The rule passes of the AST lint engine.

    Five rules ship today; each is a [run : ctx -> finding list]
    plugged into {!Ast_engine.analyze}:

    - [par/shared-mutable-state] — a mutable global (or a mutable
      record field of a captured value) is reachable from code that
      runs on worker domains ({!Castor_ilp.Parallel} fan-outs,
      [Domain.spawn], [run_partition]/[fanout] callbacks) without
      [Atomic]/[Mutex]/[Domain.DLS] protection. Once a global is known
      to be worker-shared, {e every} unprotected access to it in its
      defining module fires — the racy side of a race is usually the
      caller, not the worker.
    - [par/swallowed-fatal] — a wildcard exception handler in a
      spawning module that neither re-raises nor screens
      [Out_of_memory]/[Stack_overflow] first.
    - [gen/unchecked-mutation] — one function both mutates a storage
      backend and consumes cached [Coverage] answers without
      consulting the generation counter ([Backend.generation] /
      [Coverage.refresh]).
    - [seed/ambient-randomness] — global-state [Random] calls outside
      the [CASTOR_TEST_SEED] plumbing.
    - [backend/direct-instance-access] — the PR 5 seam rule,
      reimplemented on the AST so comments and strings can no longer
      fire it.

    Protection detection is per enclosing top-level binding: a body
    that mentions [Mutex.lock]/[Mutex.protect] anywhere is considered
    lock-disciplined. That coarseness trades a little recall for zero
    false positives on the project's lock-per-module idiom. *)

open Parsetree
module SS = Set.Make (String)

let rec path_of_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> path_of_lid p @ [ s ]
  | Longident.Lapply _ -> []

let rec last2 = function
  | [ m; x ] -> Some (m, x)
  | _ :: tl -> last2 tl
  | [] -> None

let is_cap s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

let has_substring hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    if i + m > n then false
    else String.sub hay i m = needle || go (i + 1)
  in
  go 0

let pat_vars p =
  let out = ref SS.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun sub p ->
          (match p.ppat_desc with
          | Ppat_var n -> out := SS.add n.txt !out
          | Ppat_alias (_, n) -> out := SS.add n.txt !out
          | _ -> ());
          Ast_iterator.default_iterator.pat sub p);
    }
  in
  it.pat it p;
  !out

let mentions_lock e =
  List.exists
    (fun p ->
      match List.rev p with
      | ("lock" | "try_lock" | "protect") :: "Mutex" :: _ -> true
      | _ -> false)
    (Ast_callgraph.idents_of e)

(* ---------------- access collection -------------------------------- *)

(** A value access inside a function body, with the local-binding
    context resolved: [Ident] paths whose head is locally bound are
    already dropped, and [Mut_field] only reports simple captured
    bases. *)
type access =
  | Ident of string list * Location.t
  | Mut_field of string * string * Location.t
      (** captured base ident, mutable field name *)

let accesses ?(bound = SS.empty) state expr =
  let out = ref [] in
  let rec go bound e =
    let case bound c =
      let b = SS.union bound (pat_vars c.pc_lhs) in
      Option.iter (go b) c.pc_guard;
      go b c.pc_rhs
    in
    let field bound b f loc =
      match List.rev (path_of_lid f.Asttypes.txt) with
      | fname :: _ when Ast_state.is_mutable_field state fname -> (
          match (Ast_state.unwrap_expr b).pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } when not (SS.mem x bound)
            ->
              out := Mut_field (x, fname, loc) :: !out
          | _ -> ())
      | _ -> ()
    in
    match e.pexp_desc with
    | Pexp_ident lid -> (
        match path_of_lid lid.txt with
        | [ x ] when SS.mem x bound -> ()
        | [] -> ()
        | p -> out := Ident (p, e.pexp_loc) :: !out)
    | Pexp_field (b, f) ->
        field bound b f e.pexp_loc;
        go bound b
    | Pexp_setfield (b, f, v) ->
        field bound b f e.pexp_loc;
        go bound b;
        go bound v
    | Pexp_fun (_, default, pat, body) ->
        Option.iter (go bound) default;
        go (SS.union bound (pat_vars pat)) body
    | Pexp_function cases -> List.iter (case bound) cases
    | Pexp_newtype (_, body) -> go bound body
    | Pexp_let (rf, vbs, body) ->
        let names =
          List.fold_left
            (fun acc vb -> SS.union acc (pat_vars vb.pvb_pat))
            SS.empty vbs
        in
        let rhs_bound =
          if rf = Asttypes.Recursive then SS.union bound names else bound
        in
        List.iter (fun vb -> go rhs_bound vb.pvb_expr) vbs;
        go (SS.union bound names) body
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        go bound scrut;
        List.iter (case bound) cases
    | Pexp_for (p, e1, e2, _, body) ->
        go bound e1;
        go bound e2;
        go (SS.union bound (pat_vars p)) body
    | _ ->
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ e' -> go bound e');
          }
        in
        Ast_iterator.default_iterator.expr it e
  in
  go bound expr;
  List.rev !out

let resolve_global state ~modname path =
  match path with
  | [ x ] -> Ast_state.find_global state (modname ^ "." ^ x)
  | _ -> (
      match last2 path with
      | Some (m, x) when is_cap m -> Ast_state.find_global state (m ^ "." ^ x)
      | _ -> None)

(* every expression at the top of a structure: [let] right-hand sides
   and [Pstr_eval] items, recursing into plain nested modules *)
let rec top_exprs structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.map (fun vb -> vb.pvb_expr) vbs
      | Pstr_eval (e, _) -> [ e ]
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
          top_exprs s
      | _ -> [])
    structure

let fpath_of_loc ~fallback (loc : Location.t) =
  match loc.Location.loc_start.Lexing.pos_fname with
  | "" -> fallback
  | f -> f

let finding ~loc ~fallback ~rule ~severity ~name fmt =
  let fpath = fpath_of_loc ~fallback loc in
  Fmt.kstr
    (fun message ->
      {
        Ast_engine.fpath;
        diag =
          {
            Diagnostic.rule;
            severity;
            subject = fpath ^ ": " ^ name;
            message;
            span = Some (Ast_parse.span_of_loc loc);
          };
      })
    fmt

(* ---------------- worker-code discovery ---------------------------- *)

(* applications whose function arguments execute on worker domains *)
let spawn_surface path =
  match List.rev path with
  | ("init" | "map") :: "Parallel" :: _ -> true
  | "spawn" :: "Domain" :: _ -> true
  | "run_partition" :: _ -> true
  | [ "fanout" ] -> true
  | _ -> false

let rec lambda_of e =
  let e = Ast_state.unwrap_expr e in
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> Some e
  | Pexp_newtype (_, b) -> lambda_of b
  | Pexp_construct ({ txt = Longident.Lident "Some"; _ }, Some inner) ->
      lambda_of inner
  | _ -> None

(* first lambda anywhere in a subtree — the [let fanout = ... Some
   (fun ...)] heuristic *)
let find_lambda e =
  let out = ref None in
  let rec go e =
    if !out = None then
      match e.pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> out := Some e
      | _ ->
          let it =
            {
              Ast_iterator.default_iterator with
              expr = (fun _ e' -> go e');
            }
          in
          Ast_iterator.default_iterator.expr it e
  in
  go e;
  !out

(** [collect_seeds ~modname graph structure] finds the worker-executed
    code of one module: anonymous closures handed to a spawn surface
    (directly, via a local [let f = fun ...] binding, or bound to a
    [fanout] option), top-level functions passed by name, and whether
    the module spawns at all. *)
let collect_seeds ~modname graph structure =
  let closures = ref [] and named = ref [] and has_spawn = ref false in
  let seed_arg env a =
    match lambda_of a with
    | Some l -> closures := l :: !closures
    | None -> (
        match (Ast_state.unwrap_expr a).pexp_desc with
        | Pexp_ident { txt = Longident.Lident x; _ } when List.mem_assoc x env
          ->
            closures := List.assoc x env :: !closures
        | Pexp_ident lid -> (
            match
              Ast_callgraph.resolve graph ~modname (path_of_lid lid.txt)
            with
            | Some node -> named := node :: !named
            | None -> ())
        | _ -> ())
  in
  let rec go env e =
    match e.pexp_desc with
    | Pexp_apply (f, args) ->
        let fpath =
          match (Ast_state.unwrap_expr f).pexp_desc with
          | Pexp_ident lid -> path_of_lid lid.txt
          | _ -> []
        in
        if spawn_surface fpath then begin
          has_spawn := true;
          List.iter (fun (_, a) -> seed_arg env a) args
        end;
        List.iter
          (fun (lbl, a) ->
            match lbl with
            | Asttypes.Labelled "fanout" | Asttypes.Optional "fanout" ->
                has_spawn := true;
                seed_arg env a
            | _ -> ())
          args;
        go env f;
        List.iter (fun (_, a) -> go env a) args
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> go env vb.pvb_expr) vbs;
        let env' =
          List.fold_left
            (fun env vb ->
              match (Ast_state.unwrap_pat vb.pvb_pat).ppat_desc with
              | Ppat_var n ->
                  if String.equal n.txt "fanout" then (
                    match find_lambda vb.pvb_expr with
                    | Some l ->
                        has_spawn := true;
                        closures := l :: !closures
                    | None -> ());
                  (match lambda_of vb.pvb_expr with
                  | Some l -> (n.txt, l) :: env
                  | None -> env)
              | _ -> env)
            env vbs
        in
        go env' body
    | _ ->
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ e' -> go env e');
          }
        in
        Ast_iterator.default_iterator.expr it e
  in
  List.iter (fun e -> go [] e) (top_exprs structure);
  (!closures, !named, !has_spawn)

(* ---------------- par/shared-mutable-state ------------------------- *)

let rule_shared = "par/shared-mutable-state"

let run_shared (ctx : Ast_engine.ctx) =
  let findings = ref [] in
  let shared : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let fire_global ~fallback loc (g : Ast_state.global) desc =
    findings :=
      finding ~loc ~fallback ~rule:rule_shared ~severity:Diagnostic.Error
        ~name:g.Ast_state.gname
        "mutable global %s (%s) is shared with domain workers without \
         Atomic/Mutex/Domain.DLS protection"
        g.Ast_state.gname desc
      :: !findings
  in
  let scan_body ~fallback ~modname body =
    let locked = mentions_lock body in
    List.iter
      (function
        | Ident (p, loc) -> (
            match resolve_global ctx.Ast_engine.state ~modname p with
            | Some ({ Ast_state.gkind = Ast_state.Unsafe desc; _ } as g) ->
                Hashtbl.replace shared
                  (g.Ast_state.gmod ^ "." ^ g.Ast_state.gname)
                  ();
                if not locked then fire_global ~fallback loc g desc
            | Some _ | None -> ())
        | Mut_field (base, fname, loc) ->
            if not locked then
              findings :=
                finding ~loc ~fallback ~rule:rule_shared
                  ~severity:Diagnostic.Error ~name:(base ^ "." ^ fname)
                  "mutable field %s of captured value %s is read or written \
                   in worker-reachable code without snapshot or lock"
                  fname base
                :: !findings)
      (accesses ctx.Ast_engine.state body)
  in
  (* 1. worker-executed code: closures at spawn sites plus named
     functions handed to them *)
  let all_closures = ref [] and all_named = ref [] in
  List.iter
    (fun (file : Ast_parse.file) ->
      let cs, ns, _ =
        collect_seeds ~modname:file.Ast_parse.modname ctx.Ast_engine.graph
          file.Ast_parse.structure
      in
      all_closures :=
        List.map (fun c -> (file, c)) cs @ !all_closures;
      all_named := ns @ !all_named)
    ctx.Ast_engine.files;
  (* closures also reach every top-level function they mention *)
  let closure_callees =
    List.concat_map
      (fun ((file : Ast_parse.file), c) ->
        List.filter_map
          (Ast_callgraph.resolve ctx.Ast_engine.graph
             ~modname:file.Ast_parse.modname)
          (Ast_callgraph.idents_of c))
      !all_closures
  in
  List.iter
    (fun ((file : Ast_parse.file), c) ->
      scan_body ~fallback:file.Ast_parse.path ~modname:file.Ast_parse.modname c)
    !all_closures;
  let reach =
    Ast_callgraph.reachable ctx.Ast_engine.graph (!all_named @ closure_callees)
  in
  Hashtbl.iter
    (fun node () ->
      match String.index_opt node '.' with
      | None -> ()
      | Some i -> (
          let modname = String.sub node 0 i in
          match
            ( Ast_callgraph.body ctx.Ast_engine.graph node,
              Ast_engine.file_of_module ctx modname )
          with
          | Some body, Some file ->
              scan_body ~fallback:file.Ast_parse.path ~modname body
          | _ -> ()))
    reach;
  (* 2. a worker-shared global makes every unprotected access in its
     defining module a race — the caller side of the handshake *)
  Hashtbl.iter
    (fun key () ->
      match String.index_opt key '.' with
      | None -> ()
      | Some i -> (
          let modname = String.sub key 0 i in
          match Ast_engine.file_of_module ctx modname with
          | None -> ()
          | Some file ->
              List.iter
                (fun body ->
                  if not (mentions_lock body) then
                    List.iter
                      (function
                        | Ident (p, loc) -> (
                            match
                              resolve_global ctx.Ast_engine.state ~modname p
                            with
                            | Some
                                ({ Ast_state.gkind = Ast_state.Unsafe desc; _ }
                                 as g)
                              when String.equal
                                     (g.Ast_state.gmod ^ "."
                                    ^ g.Ast_state.gname)
                                     key ->
                                fire_global ~fallback:file.Ast_parse.path loc g
                                  desc
                            | _ -> ())
                        | Mut_field _ -> ())
                      (accesses ctx.Ast_engine.state body))
                (top_exprs file.Ast_parse.structure)))
    shared;
  !findings

(* ---------------- par/swallowed-fatal ------------------------------ *)

let rule_fatal = "par/swallowed-fatal"

let raising_body e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.pexp_desc with
          | Pexp_assert _ -> found := true
          | Pexp_ident lid -> (
              match List.rev (path_of_lid lid.txt) with
              | ("raise" | "raise_notrace" | "reraise" | "failwith"
                | "invalid_arg" | "exit")
                :: _ ->
                  found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  !found

let pat_mentions_fatal p =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun sub p ->
          (match p.ppat_desc with
          | Ppat_construct (lid, _) -> (
              match List.rev (path_of_lid lid.txt) with
              | ("Out_of_memory" | "Stack_overflow") :: _ -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.pat sub p);
    }
  in
  it.pat it p;
  !found

let guard_mentions_fatal g =
  List.exists
    (fun p ->
      List.exists
        (fun seg -> has_substring (String.lowercase_ascii seg) "fatal")
        p)
    (Ast_callgraph.idents_of g)

let run_fatal (ctx : Ast_engine.ctx) =
  let findings = ref [] in
  List.iter
    (fun (file : Ast_parse.file) ->
      let _, _, has_spawn =
        collect_seeds ~modname:file.Ast_parse.modname ctx.Ast_engine.graph
          file.Ast_parse.structure
      in
      if has_spawn then
        let check_try cases =
          let screened =
            List.exists
              (fun c ->
                pat_mentions_fatal c.pc_lhs
                ||
                match c.pc_guard with
                | Some g -> guard_mentions_fatal g
                | None -> false)
              cases
          in
          if not screened then
            List.iter
              (fun c ->
                match (c.pc_lhs.ppat_desc, c.pc_guard) with
                | (Ppat_any | Ppat_var _), None
                  when not (raising_body c.pc_rhs) ->
                    findings :=
                      finding ~loc:c.pc_lhs.ppat_loc
                        ~fallback:file.Ast_parse.path ~rule:rule_fatal
                        ~severity:Diagnostic.Error ~name:"try ... with _"
                        "wildcard handler can absorb \
                         Out_of_memory/Stack_overflow in worker-reachable \
                         code; match fatal exceptions first and re-raise"
                      :: !findings
                | _ -> ())
              cases
        in
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun sub e ->
                (match e.pexp_desc with
                | Pexp_try (_, cases) -> check_try cases
                | _ -> ());
                Ast_iterator.default_iterator.expr sub e);
          }
        in
        List.iter (fun e -> it.expr it e) (top_exprs file.Ast_parse.structure))
    ctx.Ast_engine.files;
  !findings

(* ---------------- gen/unchecked-mutation --------------------------- *)

let rule_gen = "gen/unchecked-mutation"

let gen_mutator p =
  let rec scan = function
    | m :: f :: _
      when List.mem m [ "Instance"; "Store"; "Backend" ]
           && List.mem f
                [ "add"; "remove"; "remove_tuple"; "add_tuple"; "add_list" ] ->
        true
    | _ :: tl -> scan tl
    | [] -> false
  in
  scan p

let gen_reader p =
  let rec scan = function
    | "Coverage" :: f :: _
      when List.mem f [ "vector"; "covers"; "covered_count" ] ->
        true
    | _ :: tl -> scan tl
    | [] -> false
  in
  scan p

let gen_guard p =
  List.exists
    (fun seg ->
      List.mem seg [ "generation"; "refresh"; "clear_cache"; "set_backend" ])
    p

let run_gen (ctx : Ast_engine.ctx) =
  List.concat_map
    (fun (file : Ast_parse.file) ->
      List.concat_map
        (fun body ->
          let acc = accesses ctx.Ast_engine.state body in
          let idents =
            List.filter_map (function Ident (p, l) -> Some (p, l) | _ -> None) acc
          in
          let reads = List.exists (fun (p, _) -> gen_reader p) idents in
          let guarded = List.exists (fun (p, _) -> gen_guard p) idents in
          if not (reads && not guarded) then []
          else
            match List.find_opt (fun (p, _) -> gen_mutator p) idents with
            | Some (p, loc) ->
                [
                  finding ~loc ~fallback:file.Ast_parse.path ~rule:rule_gen
                    ~severity:Diagnostic.Warning
                    ~name:(String.concat "." p)
                    "backend mutation next to cached Coverage reads without \
                     consulting the generation counter \
                     (Backend.generation/Coverage.refresh) — memoized \
                     vectors go stale"
                  ;
                ]
            | None -> [])
        (top_exprs file.Ast_parse.structure))
    ctx.Ast_engine.files

(* ---------------- seed/ambient-randomness -------------------------- *)

let rule_seed = "seed/ambient-randomness"

let ambient_random p =
  let rec scan = function
    | "Random" :: f :: _
      when List.mem f
             [
               "self_init"; "init"; "full_init"; "int"; "bits"; "bool";
               "float"; "int32"; "int64"; "nativeint"; "int_in_range";
               "float_in_range";
             ] ->
        Some f
    | _ :: tl -> scan tl
    | [] -> None
  in
  scan p

let run_seed (ctx : Ast_engine.ctx) =
  List.concat_map
    (fun (file : Ast_parse.file) ->
      (* the seed plumbing itself (reads CASTOR_TEST_SEED and feeds
         explicit Random.State values) is the one legitimate client *)
      if has_substring file.Ast_parse.text "CASTOR_TEST_SEED" then []
      else
        List.concat_map
          (fun body ->
            List.filter_map
              (function
                | Ident (p, loc) ->
                    Option.map
                      (fun f ->
                        finding ~loc ~fallback:file.Ast_parse.path
                          ~rule:rule_seed ~severity:Diagnostic.Error
                          ~name:("Random." ^ f)
                          "ambient Random.%s mutates the global PRNG outside \
                           the CASTOR_TEST_SEED plumbing; thread an explicit \
                           seeded Random.State instead"
                          f)
                      (ambient_random p)
                | Mut_field _ -> None)
              (accesses ctx.Ast_engine.state body))
          (top_exprs file.Ast_parse.structure))
    ctx.Ast_engine.files

(* ---------------- backend/direct-instance-access ------------------- *)

let rule_backend = "backend/direct-instance-access"

(* the read surface of the two storage modules; a qualified use of any
   of these outside lib/relational bypasses the Backend seam *)
let banned =
  [
    ("Instance", "find");
    ("Instance", "find_matching");
    ("Instance", "tuples_containing");
    ("Store", "find");
    ("Store", "find_in_shard");
    ("Store", "find_matching");
    ("Store", "tuples");
    ("Store", "shard_tuples");
    ("Store", "tuples_containing");
    ("Store", "shard_of");
    ("Store", "shard_of_value");
  ]

(* lib/relational implements the seam; its files read the stores by
   definition *)
let exempt_path path =
  let norm = String.map (fun c -> if c = '\\' then '/' else c) path in
  has_substring norm "lib/relational/"

let banned_hit p =
  let rec scan = function
    | m :: f :: _ when List.mem (m, f) banned -> Some (m ^ "." ^ f)
    | _ :: tl -> scan tl
    | [] -> None
  in
  scan p

let run_backend (ctx : Ast_engine.ctx) =
  List.concat_map
    (fun (file : Ast_parse.file) ->
      if exempt_path file.Ast_parse.path then []
      else
        List.concat_map
          (fun body ->
            List.filter_map
              (function
                | Ident (p, loc) ->
                    Option.map
                      (fun qualified ->
                        finding ~loc ~fallback:file.Ast_parse.path
                          ~rule:rule_backend ~severity:Diagnostic.Error
                          ~name:(String.concat "." p)
                          "direct %s lookup bypasses the Backend seam (use \
                           Backend.find_matching/tuples_containing)"
                          qualified)
                      (banned_hit p)
                | Mut_field _ -> None)
              (accesses ctx.Ast_engine.state body))
          (top_exprs file.Ast_parse.structure))
    ctx.Ast_engine.files

(* ---------------- the pass list ------------------------------------ *)

let passes : Ast_engine.pass list =
  [
    { Ast_engine.prules = [ rule_shared ]; prun = run_shared };
    { prules = [ rule_fatal ]; prun = run_fatal };
    { prules = [ rule_gen ]; prun = run_gen };
    { prules = [ rule_seed ]; prun = run_seed };
    { prules = [ rule_backend ]; prun = run_backend };
  ]

(** [analyze files] — the full engine over [(path, text)] pairs;
    diagnostics grouped per path in input order. *)
let analyze files = Ast_engine.analyze ~passes files
