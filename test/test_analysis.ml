(* The static-analysis pass: one firing (positive) and one clean
   (negative) case per lint rule, catalog consistency, and the
   safety property of the bottom-clause pruner — pruning redundant
   literals never changes any subsumption outcome, hence no coverage
   vector. *)

open Castor_relational
open Castor_logic
module Diagnostic = Castor_analysis.Diagnostic
module Clause_lint = Castor_analysis.Clause_lint
module Schema_lint = Castor_analysis.Schema_lint
module Modes = Castor_analysis.Modes
module Analyze = Castor_analysis.Analyze
open Helpers

let rules_of diags =
  List.sort_uniq String.compare
    (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) diags)

let fires rule diags = List.mem rule (rules_of diags)

let check_fires name rule diags =
  check Alcotest.bool name true (fires rule diags)

let check_clean name rule diags =
  check Alcotest.bool name false (fires rule diags)

let cl text = Parse.clause text

(* ---------------- clause lints ------------------------------------- *)

let test_unsafe () =
  check_fires "head var missing from body" "clause/unsafe"
    (Clause_lint.check (cl "t(X) :- p(Y,Z)."));
  check_clean "safe clause" "clause/unsafe"
    (Clause_lint.check (cl "t(X) :- p(X,Y)."))

let test_disconnected () =
  check_fires "dangling literal" "clause/disconnected"
    (Clause_lint.check (cl "t(X) :- p(X,Y), q(Z,W)."));
  check_clean "head-connected clause" "clause/disconnected"
    (Clause_lint.check (cl "t(X) :- p(X,Y), q(Y,Z)."))

let test_singleton () =
  check_fires "variable used once" "clause/singleton-var"
    (Clause_lint.check (cl "t(X) :- p(X,Y)."));
  check_clean "all variables shared" "clause/singleton-var"
    (Clause_lint.check (cl "t(X) :- p(X,Y), q(Y,X)."))

let test_duplicate () =
  check_fires "verbatim duplicate" "clause/duplicate-literal"
    (Clause_lint.check (cl "t(X) :- p(X,Y), p(X,Y)."));
  check_clean "distinct literals" "clause/duplicate-literal"
    (Clause_lint.check (cl "t(X) :- p(X,Y), p(Y,X)."))

let test_redundant () =
  check_fires "absorbed literal" "clause/redundant-literal"
    (Clause_lint.check (cl "t(X) :- p(X,Y), p(X,Z)."));
  check_clean "no literal absorbs another" "clause/redundant-literal"
    (Clause_lint.check (cl "t(X) :- p(X,Y), q(Y,Z)."))

let test_depth () =
  check_fires "join chain deeper than the saturation bound"
    "clause/determinacy-depth"
    (Clause_lint.check ~depth_limit:4
       (cl "t(A) :- p(A,B), p(B,C), p(C,D), p(D,E), p(E,F)."));
  check_clean "shallow clause" "clause/determinacy-depth"
    (Clause_lint.check ~depth_limit:4 (cl "t(A) :- p(A,B), p(B,C)."))

let test_unknown_relation () =
  check_fires "undeclared body relation" "clause/unknown-relation"
    (Clause_lint.check ~schema:abc_schema (cl "t(X) :- nosuch(X,Y)."));
  check_clean "declared relation" "clause/unknown-relation"
    (Clause_lint.check ~schema:abc_schema (cl "t(X) :- r(X,Y,Z)."))

let test_arity () =
  check_fires "wrong arity" "clause/arity-mismatch"
    (Clause_lint.check ~schema:abc_schema (cl "t(X) :- r(X,Y)."));
  check_clean "declared arity" "clause/arity-mismatch"
    (Clause_lint.check ~schema:abc_schema (cl "t(X) :- r(X,Y,Z)."))

let test_domain_conflict () =
  (* r(a:da, b:db, c:dc): X at both da and db can never bind *)
  check_fires "one variable at two domains" "clause/domain-conflict"
    (Clause_lint.check ~schema:abc_schema (cl "t(X) :- r(X,X,Y)."));
  check_clean "domains line up" "clause/domain-conflict"
    (Clause_lint.check ~schema:abc_schema (cl "t(X) :- r(X,Y,Z), r(X,B,C)."))

let test_parse_error () =
  let diags = Analyze.clauses_text "t(X) :- p(X,Y)\n  ;;" in
  check_fires "malformed input" "parse/error" diags;
  check Alcotest.bool "message carries the position" true
    (List.exists
       (fun (d : Diagnostic.t) -> contains ~sub:"line 2" d.Diagnostic.message)
       diags);
  check Alcotest.bool "parse errors are errors" true (Diagnostic.has_errors diags);
  check_clean "well-formed input" "parse/error"
    (Analyze.clauses_text "t(X) :- p(X,Y), q(Y,X).")

let test_spans () =
  (* the second clause starts on line 3; its lints must say so *)
  let diags =
    Analyze.clauses_text "t(X) :- p(X,Y), q(Y,X).\n\nt(X) :- p(Y,Z)."
  in
  let unsafe =
    List.find
      (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "clause/unsafe")
      diags
  in
  match unsafe.Diagnostic.span with
  | Some s -> check Alcotest.int "span line" 3 s.Diagnostic.line
  | None -> Alcotest.fail "clause lint lost its source span"

(* ---------------- schema lints ------------------------------------- *)

let at = Schema.attribute

let test_duplicate_relation () =
  let s =
    Schema.make
      [ Schema.relation "r" [ at ~domain:"d" "a" ];
        Schema.relation "r" [ at ~domain:"d" "b" ] ]
  in
  check_fires "same symbol twice" "schema/duplicate-relation" (Schema_lint.check s);
  check_clean "distinct symbols" "schema/duplicate-relation"
    (Schema_lint.check abc_schema)

let test_fd_decls () =
  let bad_rel =
    Schema.make
      ~fds:[ { Schema.fd_rel = "nosuch"; fd_lhs = [ "a" ]; fd_rhs = [ "b" ] } ]
      [ Schema.relation "r" [ at ~domain:"d" "a"; at ~domain:"d" "b" ] ]
  in
  check_fires "fd on unknown relation" "schema/unknown-relation"
    (Schema_lint.check bad_rel);
  let bad_attr =
    Schema.make
      ~fds:[ { Schema.fd_rel = "r"; fd_lhs = [ "a" ]; fd_rhs = [ "zz" ] } ]
      [ Schema.relation "r" [ at ~domain:"d" "a"; at ~domain:"d" "b" ] ]
  in
  check_fires "fd attribute outside the sort" "schema/unknown-attribute"
    (Schema_lint.check bad_attr);
  let trivial =
    Schema.make
      ~fds:[ { Schema.fd_rel = "r"; fd_lhs = [ "a"; "b" ]; fd_rhs = [ "a" ] } ]
      [ Schema.relation "r" [ at ~domain:"d" "a"; at ~domain:"d" "b" ] ]
  in
  check_fires "rhs inside lhs" "schema/trivial-fd" (Schema_lint.check trivial);
  let clean = Schema_lint.check abc_schema in
  check_clean "well-formed fds (unknown-relation)" "schema/unknown-relation" clean;
  check_clean "well-formed fds (unknown-attribute)" "schema/unknown-attribute" clean;
  check_clean "well-formed fds (trivial)" "schema/trivial-fd" clean

let two_rel_schema ?fds ?inds () =
  Schema.make ?fds ?inds
    [ Schema.relation "r1" [ at ~domain:"d1" "a"; at ~domain:"d2" "b" ];
      Schema.relation "r2" [ at ~domain:"d1" "x"; at ~domain:"d3" "y" ] ]

let test_ind_decls () =
  let arity =
    two_rel_schema ~inds:[ Schema.ind_with_equality "r1" [ "a"; "b" ] "r2" [ "x" ] ] ()
  in
  check_fires "sides of different length" "schema/ind-arity-mismatch"
    (Schema_lint.check arity);
  let domains =
    two_rel_schema ~inds:[ Schema.ind_with_equality "r1" [ "b" ] "r2" [ "y" ] ] ()
  in
  check_fires "linked attributes of different domains" "schema/ind-domain-mismatch"
    (Schema_lint.check domains);
  let clean =
    Schema_lint.check
      (two_rel_schema ~inds:[ Schema.ind_with_equality "r1" [ "a" ] "r2" [ "x" ] ] ())
  in
  check_clean "well-formed ind (arity)" "schema/ind-arity-mismatch" clean;
  check_clean "well-formed ind (domains)" "schema/ind-domain-mismatch" clean

let test_cyclic_class () =
  (* r1(a,b), r2(b,c), r3(c,a) tied into one inclusion class: the
     sorts form the classic GYO-cyclic triangle *)
  let s =
    Schema.make
      ~inds:
        [ Schema.ind_with_equality "r1" [ "b" ] "r2" [ "b" ];
          Schema.ind_with_equality "r2" [ "c" ] "r3" [ "c" ];
          Schema.ind_with_equality "r3" [ "a" ] "r1" [ "a" ] ]
      [ Schema.relation "r1" [ at ~domain:"da" "a"; at ~domain:"db" "b" ];
        Schema.relation "r2" [ at ~domain:"db" "b"; at ~domain:"dc" "c" ];
        Schema.relation "r3" [ at ~domain:"dc" "c"; at ~domain:"da" "a" ] ]
  in
  check_fires "triangle of equality inds" "schema/cyclic-class" (Schema_lint.check s);
  let path =
    Schema.make
      ~inds:
        [ Schema.ind_with_equality "r1" [ "b" ] "r2" [ "b" ];
          Schema.ind_with_equality "r2" [ "c" ] "r3" [ "c" ] ]
      [ Schema.relation "r1" [ at ~domain:"da" "a"; at ~domain:"db" "b" ];
        Schema.relation "r2" [ at ~domain:"db" "b"; at ~domain:"dc" "c" ];
        Schema.relation "r3" [ at ~domain:"dc" "c"; at ~domain:"da" "d" ] ]
  in
  check_clean "path of equality inds" "schema/cyclic-class" (Schema_lint.check path)

let test_subset_cycle () =
  let s =
    two_rel_schema
      ~inds:
        [ Schema.ind_subset "r1" [ "a" ] "r2" [ "x" ];
          Schema.ind_subset "r2" [ "x" ] "r1" [ "a" ] ]
      ()
  in
  check_fires "mutual subset inds" "schema/subset-ind-cycle" (Schema_lint.check s);
  let one_way =
    two_rel_schema ~inds:[ Schema.ind_subset "r1" [ "a" ] "r2" [ "x" ] ] ()
  in
  check_clean "one-directional subset ind" "schema/subset-ind-cycle"
    (Schema_lint.check one_way)

let fd_ind_schema ~with_image_fd =
  let fds =
    { Schema.fd_rel = "r1"; fd_lhs = [ "a" ]; fd_rhs = [ "b" ] }
    :: (if with_image_fd then
          [ { Schema.fd_rel = "r2"; fd_lhs = [ "x" ]; fd_rhs = [ "y" ] } ]
        else [])
  in
  Schema.make ~fds
    ~inds:[ Schema.ind_with_equality "r1" [ "a"; "b" ] "r2" [ "x"; "y" ] ]
    [ Schema.relation "r1" [ at ~domain:"d1" "a"; at ~domain:"d2" "b" ];
      Schema.relation "r2" [ at ~domain:"d1" "x"; at ~domain:"d2" "y" ] ]

let test_fd_ind () =
  check_fires "fd not mirrored across the equality ind" "schema/fd-ind-mismatch"
    (Schema_lint.check (fd_ind_schema ~with_image_fd:false));
  check_clean "fd mirrored on the other side" "schema/fd-ind-mismatch"
    (Schema_lint.check (fd_ind_schema ~with_image_fd:true))

(* ---------------- transformation lints ------------------------------ *)

let test_transform_decompose () =
  let dec rel parts = [ Transform.Decompose { rel; parts } ] in
  check_fires "decompose unknown relation" "transform/unknown-relation"
    (Schema_lint.check_transform abc_schema (dec "nosuch" [ ("p", [ "a" ]) ]));
  check_fires "part lists a foreign attribute" "transform/unknown-attribute"
    (Schema_lint.check_transform abc_schema
       (dec "r" [ ("r1", [ "a"; "zz" ]); ("r2", [ "a"; "b"; "c" ]) ]));
  check_fires "parts do not cover the sort" "transform/parts-dont-cover"
    (Schema_lint.check_transform abc_schema
       (dec "r" [ ("r1", [ "a"; "b" ]) ]));
  check_clean "lossless decomposition"
    "transform/parts-dont-cover"
    (Schema_lint.check_transform abc_schema abc_decomposition)

let test_transform_compose () =
  let triangle =
    Schema.make
      [ Schema.relation "r1" [ at ~domain:"da" "a"; at ~domain:"db" "b" ];
        Schema.relation "r2" [ at ~domain:"db" "b"; at ~domain:"dc" "c" ];
        Schema.relation "r3" [ at ~domain:"dc" "c"; at ~domain:"da" "a" ] ]
  in
  check_fires "cyclic composition join" "transform/cyclic-join"
    (Schema_lint.check_transform triangle
       [ Transform.Compose { parts = [ "r1"; "r2"; "r3" ]; into = "big" } ]);
  let disjoint =
    Schema.make
      [ Schema.relation "r1" [ at ~domain:"da" "a" ];
        Schema.relation "r2" [ at ~domain:"db" "b" ] ]
  in
  check_fires "cartesian-product composition" "transform/disconnected-join"
    (Schema_lint.check_transform disjoint
       [ Transform.Compose { parts = [ "r1"; "r2" ]; into = "big" } ]);
  (* recomposing the abc decomposition joins r1, r2 on "a" *)
  let decomposed = Transform.apply_schema abc_schema abc_decomposition in
  let clean =
    Schema_lint.check_transform decomposed
      [ Transform.Compose { parts = [ "r1"; "r2" ]; into = "r" } ]
  in
  check_clean "well-joined composition (cyclic)" "transform/cyclic-join" clean;
  check_clean "well-joined composition (disconnected)" "transform/disconnected-join"
    clean

(* ---------------- mode lints ---------------------------------------- *)

let lint_modes ?(const_pool_domains = []) ?(no_expand_domains = []) ~target s =
  Modes.lint_config ~target ~const_pool_domains ~no_expand_domains s

let test_mode_target () =
  let target = Schema.relation "t" [ at ~domain:"nowhere" "v" ] in
  check_fires "target over an unbindable domain" "mode/target-domain-unknown"
    (lint_modes ~target abc_schema);
  let target_ok = Schema.relation "t" [ at ~domain:"da" "v" ] in
  check_clean "target over a schema domain" "mode/target-domain-unknown"
    (lint_modes ~target:target_ok abc_schema)

let test_mode_pools () =
  let target = Schema.relation "t" [ at ~domain:"da" "v" ] in
  check_fires "constant pool over an unknown domain" "mode/const-domain-unknown"
    (lint_modes ~target ~const_pool_domains:[ "nowhere" ] abc_schema);
  check_clean "constant pool over a schema domain" "mode/const-domain-unknown"
    (lint_modes ~target ~const_pool_domains:[ "db" ] abc_schema);
  check_fires "frontier filter over an unknown domain"
    "mode/no-expand-domain-unknown"
    (lint_modes ~target ~no_expand_domains:[ "nowhere" ] abc_schema);
  check_clean "frontier filter over a schema domain"
    "mode/no-expand-domain-unknown"
    (lint_modes ~target ~no_expand_domains:[ "db" ] abc_schema)

let test_mode_inputs () =
  let target = Schema.relation "t" [ at ~domain:"d" "v" ] in
  let keyless =
    Schema.make [ Schema.relation "r" [ at ~domain:"d" "a"; at ~domain:"d" "b" ] ]
  in
  check_fires "relation with neither key nor ind" "mode/no-input-positions"
    (lint_modes ~target keyless);
  check_clean "fd-derived key gives input positions" "mode/no-input-positions"
    (lint_modes ~target:(Schema.relation "t" [ at ~domain:"da" "v" ]) abc_schema)

let test_mode_budget () =
  let target = Schema.relation "t" [ at ~domain:"d" "u"; at ~domain:"d" "v" ] in
  (* five arity-8 relations: each chased constant admits literals that
     introduce seven fresh constants apiece *)
  let wide =
    Schema.make
      (List.init 5 (fun i ->
           Schema.relation
             (Printf.sprintf "r%d" i)
             (List.init 8 (fun j -> at ~domain:"d" (Printf.sprintf "a%d" j)))))
  in
  let budget max_terms =
    { Modes.depth = 2; max_terms; per_relation_cap = 10; max_steps = 10_000 }
  in
  check_fires "wide schema with a large variable budget"
    "mode/saturation-budget"
    (Modes.lint_budget ~budget:(budget (Some 500)) ~target wide);
  check_fires "unbounded saturation (no max_terms)" "mode/saturation-budget"
    (Modes.lint_budget ~budget:(budget None) ~target wide);
  check_clean "default-sized configuration" "mode/saturation-budget"
    (Modes.lint_budget
       ~budget:
         {
           Modes.depth = 2;
           max_terms = Some 60;
           per_relation_cap = 10;
           max_steps = 40_000;
         }
       ~target abc_schema)

let test_mode_inference () =
  (* abc_schema: fd a -> b,c makes "a" the key, so +a -b -c *)
  match Modes.infer abc_schema with
  | [ m ] ->
      check Alcotest.(list string) "key" [ "a" ] m.Modes.key;
      check Alcotest.string "rendered mode" "r(+a:da, -b:db, -c:dc)"
        (Modes.to_string m)
  | ms -> Alcotest.failf "expected one mode, got %d" (List.length ms)

let test_mode_polarity () =
  (* one schema exercising every polarity source: "a" is a key, "p" an
     IND position, "c"/"z" plain attributes; const_domains overrides *)
  let s =
    Schema.make
      ~fds:[ { Schema.fd_rel = "r"; fd_lhs = [ "a" ]; fd_rhs = [ "c" ] } ]
      ~inds:[ Schema.ind_subset "q" [ "p" ] "r" [ "a" ] ]
      [
        Schema.relation "r" [ at ~domain:"da" "a"; at ~domain:"dc" "c" ];
        Schema.relation "q" [ at ~domain:"da" "p"; at ~domain:"dz" "z" ];
      ]
  in
  let io rel attr const_domains =
    let ms = Modes.infer ~const_domains s in
    let m = List.find (fun (m : Modes.t) -> String.equal m.Modes.rel rel) ms in
    (List.find
       (fun (a : Modes.arg_mode) -> String.equal a.Modes.attr attr)
       m.Modes.args)
      .Modes.io
  in
  (* positive direction: keys and IND positions become inputs *)
  check Alcotest.bool "key attr is input" true (io "r" "a" [] = Modes.Input);
  check Alcotest.bool "ind attr is input" true (io "q" "p" [] = Modes.Input);
  (* negative direction: plain attributes are outputs, never inputs *)
  check Alcotest.bool "fd-rhs attr is output" true (io "r" "c" [] = Modes.Output);
  check Alcotest.bool "plain attr is output" true (io "q" "z" [] = Modes.Output);
  (* the constant override wins in both directions *)
  check Alcotest.bool "const domain beats output" true
    (io "r" "c" [ "dc" ] = Modes.Constant);
  check Alcotest.bool "const domain beats input" true
    (io "q" "p" [ "da" ] = Modes.Constant);
  check Alcotest.bool "unrelated attrs untouched by the override" true
    (io "q" "z" [ "dc" ] = Modes.Output)

(* ---------------- source lints -------------------------------------- *)

let test_source_lint () =
  let rule = "backend/direct-instance-access" in
  check_fires "Instance lookup in evaluation code" rule
    (Analyze.source ~path:"lib/logic/bad.ml"
       "let eval inst = Instance.find_matching inst \"r\" []");
  check_fires "qualified Store lookup" rule
    (Analyze.source ~path:"lib/ilp/bad.ml"
       "let probe s = Castor_relational.Store.find s \"r\" 0 v");
  check_clean "Backend seam access" rule
    (Analyze.source ~path:"lib/logic/good.ml"
       "let eval inst = Backend.find_matching inst \"r\" []");
  check_clean "mutation entry points stay legal" rule
    (Analyze.source ~path:"test/setup.ml"
       "let build () = Instance.add inst \"r\" [| v |]");
  check_clean "banned name inside a comment" rule
    (Analyze.source ~path:"lib/logic/doc.ml"
       "(* Instance.find is what the seam replaces (* nested \
        Store.tuples *) *) let x = 1");
  check_clean "banned name inside a string literal" rule
    (Analyze.source ~path:"lib/logic/msg.ml"
       "let m = \"use Instance.find_matching here\"");
  check_clean "the storage layer itself is exempt" rule
    (Analyze.source ~path:"lib/relational/backend.ml"
       "let f inst = Instance.find_matching inst \"r\" []");
  (* diagnostics carry positions, and the rule is catalogued *)
  (match
     Analyze.source ~path:"lib/x.ml" "let a = 1\nlet b = Instance.find i \"r\""
   with
  | [ d ] -> (
      match d.Diagnostic.span with
      | Some s ->
          check Alcotest.int "line" 2 s.Diagnostic.line;
          check Alcotest.int "col" 9 s.Diagnostic.col
      | None -> Alcotest.fail "source diagnostic lost its span")
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  check Alcotest.bool "rule is catalogued" true (Analyze.find_rule rule <> None)

(* ---------------- AST lint: parallelism / generation / seed rules --- *)

module Ast_engine = Castor_analysis.Ast_engine
module Ast_callgraph = Castor_analysis.Ast_callgraph

let src ?(path = "lib/learners/x.ml") text = Analyze.source ~path text

let test_par_shared () =
  let rule = "par/shared-mutable-state" in
  check_fires "global Hashtbl mutated in a spawned closure" rule
    (src
       "let tbl : (int, int) Hashtbl.t = Hashtbl.create 8\n\
        let go () = Domain.spawn (fun () -> Hashtbl.replace tbl 1 1)");
  check_fires "captured mutable field read inside a Parallel fan-out" rule
    (src
       "type cfg = { mutable knob : int }\n\
        let run c = Parallel.init ~domains:2 4 (fun i -> i + c.knob)");
  check_clean "Atomic globals are domain-safe" rule
    (src
       "let hits = Atomic.make 0\n\
        let go () = Domain.spawn (fun () -> Atomic.incr hits)");
  check_clean "mutable global untouched by worker code" rule
    (src "let tbl = Hashtbl.create 8\nlet bump () = Hashtbl.replace tbl 1 1");
  check_clean "snapshot taken before the fan-out" rule
    (src
       "type cfg = { mutable knob : int }\n\
        let run c =\n\
       \  let knob = c.knob in\n\
       \  Parallel.init ~domains:2 4 (fun i -> i + knob)");
  check_clean "lock-disciplined access" rule
    (src
       "let tbl = Hashtbl.create 8\n\
        let m = Mutex.create ()\n\
        let go () =\n\
       \  Domain.spawn (fun () ->\n\
       \      Mutex.lock m;\n\
       \      Hashtbl.replace tbl 1 1;\n\
       \      Mutex.unlock m)")

let test_par_shared_cross_module () =
  let rule = "par/shared-mutable-state" in
  (* the worker closure lives in beta.ml; the racy global and the
     firing access live in alpha.ml — only a whole-set run sees it *)
  let groups =
    Analyze.sources
      [
        ( "lib/a/alpha.ml",
          "let shared : int list ref = ref []\n\
           let note x = shared := x :: !shared" );
        ( "lib/b/beta.ml",
          "let run () = Parallel.map ~domains:2 (fun i -> Alpha.note i) [| 1 |]"
        );
      ]
  in
  check_fires "cross-module reachability implicates alpha.ml" rule
    (List.assoc "lib/a/alpha.ml" groups);
  check_clean "the spawning module itself is clean" rule
    (List.assoc "lib/b/beta.ml" groups);
  (* same pair, single-file runs: the race is invisible by design *)
  check_clean "single-file run cannot see the cross-module race" rule
    (src ~path:"lib/a/alpha.ml"
       "let shared : int list ref = ref []\n\
        let note x = shared := x :: !shared")

let test_par_fatal () =
  let rule = "par/swallowed-fatal" in
  check_fires "wildcard handler in a spawning module" rule
    (src
       "let go f = Parallel.map ~domains:2 f [| 1 |]\n\
        let safe f = try f () with _ -> None");
  check_clean "fatal exceptions screened first" rule
    (src
       "let is_fatal = function Out_of_memory | Stack_overflow -> true | _ -> \
        false\n\
        let go f = Parallel.map ~domains:2 f [| 1 |]\n\
        let safe f = try f () with e when is_fatal e -> raise e | _ -> None");
  check_clean "re-raising wildcard is not a swallow" rule
    (src
       "let go f = Parallel.map ~domains:2 f [| 1 |]\n\
        let safe f = try f () with e -> raise e");
  check_clean "wildcard handler outside spawning modules" rule
    (src "let safe f = try f () with _ -> None")

let test_gen_unchecked () =
  let rule = "gen/unchecked-mutation" in
  check_fires "mutation beside cached coverage reads" rule
    (src
       "let stale cov inst c =\n\
       \  let v = Coverage.vector cov c in\n\
       \  Instance.add inst \"r\" [| v |];\n\
       \  Coverage.covered_count cov c");
  check_clean "refresh consulted after the mutation" rule
    (src
       "let fresh cov inst c =\n\
       \  Instance.add inst \"r\" [||];\n\
       \  Coverage.refresh cov;\n\
       \  Coverage.covered_count cov c");
  check_clean "mutation without coverage reads" rule
    (src "let load inst = Instance.add inst \"r\" [||]")

let test_seed_ambient () =
  let rule = "seed/ambient-randomness" in
  check_fires "global-state Random.int" rule
    (src "let pick xs = List.nth xs (Random.int (List.length xs))");
  check_fires "Random.self_init" rule (src "let () = Random.self_init ()");
  check_clean "explicit Random.State is reproducible" rule
    (src "let pick st xs = List.nth xs (Random.State.int st (List.length xs))");
  check_clean "the CASTOR_TEST_SEED plumbing is exempt" rule
    (src
       "let seed =\n\
       \  match Sys.getenv_opt \"CASTOR_TEST_SEED\" with\n\
       \  | Some s -> int_of_string s\n\
       \  | None -> 42\n\
        let roll () = Random.int 6")

let test_suppression () =
  let rule = "par/shared-mutable-state" in
  let body =
    "let go () = Domain.spawn (fun () -> Hashtbl.replace tbl 1 1)"
  in
  let tbl = "let tbl : (int, int) Hashtbl.t = Hashtbl.create 8\n" in
  check_fires "unsuppressed baseline" rule (src (tbl ^ body));
  check_clean "line-above suppression" rule
    (src (tbl ^ "(* castor-lint: disable=par/shared-mutable-state *)\n" ^ body));
  check_clean "trailing same-line disable=all" rule
    (src (tbl ^ body ^ " (* castor-lint: disable=all *)"));
  check_fires "suppressing another rule does not mute this one" rule
    (src (tbl ^ "(* castor-lint: disable=gen/unchecked-mutation *)\n" ^ body))

let test_callgraph () =
  let ctx =
    Ast_engine.context
      [
        ( "alpha.ml",
          "let helper x = x + 1\nlet entry y = helper (Beta.shared y)" );
        ("beta.ml", "let shared z = z * 2\nlet lonely = 3");
      ]
  in
  let calls = Ast_callgraph.calls ctx.Ast_engine.graph "Alpha.entry" in
  check Alcotest.bool "entry calls its module-local helper" true
    (List.mem "Alpha.helper" calls);
  check Alcotest.bool "entry calls the cross-module function" true
    (List.mem "Beta.shared" calls);
  let reach = Ast_callgraph.reachable ctx.Ast_engine.graph [ "Alpha.entry" ] in
  check Alcotest.bool "reachability crosses modules" true
    (Hashtbl.mem reach "Beta.shared");
  check Alcotest.bool "unreferenced bindings stay unreachable" false
    (Hashtbl.mem reach "Beta.lonely")

(* the real sources the satellite fixes touched: the detector must run
   clean over them (regression for the n_workers race, the swallowed
   caller-side fatal, and the unsnapshotted fan-out knobs) *)

let lib_source rel =
  let candidates = [ "../" ^ rel; rel ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "source %s not reachable from the test cwd" rel
  | Some f ->
      let ic = open_in_bin f in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> (rel, really_input_string ic (in_channel_length ic)))

let test_fixed_sources_clean () =
  let groups =
    Analyze.sources
      (List.map lib_source
         [ "lib/ilp/parallel.ml"; "lib/ilp/coverage.ml"; "lib/fuzz/sweep.ml" ])
  in
  List.iter
    (fun (path, diags) ->
      check Alcotest.int
        (Fmt.str "%s is diagnostic-free" path)
        0 (List.length diags))
    groups

let test_seeded_race_detected () =
  let _, orig = lib_source "lib/ilp/parallel.ml" in
  let text =
    orig
    ^ "\nlet seeded : (int, int) Hashtbl.t = Hashtbl.create 16\n\
       let _kick () = Domain.spawn (fun () -> Hashtbl.replace seeded 1 1)\n"
  in
  let diags = Analyze.source ~path:"lib/ilp/parallel.ml" text in
  check_fires "seeded unprotected Hashtbl is caught" "par/shared-mutable-state"
    diags;
  check Alcotest.bool "finding is error severity (CLI exits nonzero)" true
    (Diagnostic.has_errors diags);
  (* the span must point at the [seeded] use inside the closure *)
  let needle = "Hashtbl.replace seeded" in
  let rec find i =
    if i + String.length needle > String.length text then
      Alcotest.fail "seeded marker not found"
    else if String.sub text i (String.length needle) = needle then i
    else find (i + 1)
  in
  let at = find 0 + String.length "Hashtbl.replace " in
  let line = ref 1 and bol = ref 0 in
  String.iteri
    (fun i c ->
      if i < at && c = '\n' then begin
        incr line;
        bol := i + 1
      end)
    text;
  let d =
    List.find
      (fun (d : Diagnostic.t) ->
        d.Diagnostic.rule = "par/shared-mutable-state")
      diags
  in
  match d.Diagnostic.span with
  | None -> Alcotest.fail "seeded race diagnostic lost its span"
  | Some s ->
      check Alcotest.int "span line" !line s.Diagnostic.line;
      check Alcotest.int "span col" (at - !bol + 1) s.Diagnostic.col

(* ---------------- catalog ------------------------------------------- *)

let test_catalog () =
  let ids = List.map (fun (r : Analyze.rule) -> r.Analyze.id) Analyze.rules in
  check Alcotest.int "catalog ids are unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  check Alcotest.bool "catalog has at least 8 rules" true (List.length ids >= 8);
  (* everything the analyzers can emit is documented in the catalog *)
  let fired =
    rules_of
      (Schema_lint.check (fd_ind_schema ~with_image_fd:false)
      @ Clause_lint.check ~schema:abc_schema
          (cl "t(W) :- r(X,X,Y), r(Z), nosuch(Y).")
      @ lint_modes
          ~target:(Schema.relation "t" [ at ~domain:"nowhere" "v" ])
          ~const_pool_domains:[ "ghost" ] abc_schema
      @ Analyze.clauses_text "t(X :-")
  in
  List.iter
    (fun id ->
      check Alcotest.bool (Fmt.str "%s is in the catalog" id) true
        (Analyze.find_rule id <> None))
    fired;
  check Alcotest.bool "a single broken config trips 8+ distinct rules" true
    (List.length fired >= 8)

(* ---------------- pre-learning gate --------------------------------- *)

let test_problem_gate () =
  let module Problem = Castor_learners.Problem in
  let module Examples = Castor_ilp.Examples in
  let inst = abc_instance () in
  let train =
    Examples.make ~pos:[ Atom.make "t" [ Term.Const (Value.str "a0") ] ] ~neg:[]
  in
  let bad_target = Schema.relation "t" [ at ~domain:"nowhere" "v" ] in
  (match Problem.make ~gate:`Strict inst bad_target train with
  | exception Problem.Rejected diags ->
      check Alcotest.bool "rejection carries the mode diagnostic" true
        (fires "mode/target-domain-unknown" diags)
  | _ -> Alcotest.fail "`Strict gate let a broken target through");
  let p = Problem.make ~gate:`Off inst bad_target train in
  check Alcotest.int "`Off skips the analysis" 1 (Examples.n_pos p.Problem.train);
  let good_target = Schema.relation "t" [ at ~domain:"da" "v" ] in
  let p2 = Problem.make ~gate:`Strict inst good_target train in
  check Alcotest.int "`Strict passes a clean config" 1
    (Examples.n_pos p2.Problem.train)

(* ---------------- pruner safety ------------------------------------- *)

let test_prune_counts () =
  (* p(X,Y) is absorbed by p(X,Z) — Y is private to it — while p(X,Z)
     is pinned by q(Z,W) *)
  let c = cl "t(X) :- p(X,Y), p(X,Z), q(Z,W)." in
  let pruned, n = Clause_lint.prune_redundant c in
  check Alcotest.int "one absorbed literal pruned" 1 n;
  check Alcotest.int "two body literals left" 2 (List.length pruned.Clause.body);
  let c2 = cl "t(X) :- p(X,Y), q(Y,W)." in
  let pruned2, n2 = Clause_lint.prune_redundant c2 in
  check Alcotest.int "nothing prunable" 0 n2;
  check Alcotest.int "body intact" 2 (List.length pruned2.Clause.body)

let test_prune_fixpoint () =
  let c = cl "t(X) :- p(X,A), p(X,B), p(X,C), p(X,D)." in
  let pruned, n = Clause_lint.prune_redundant c in
  check Alcotest.int "chain collapses in one pass" 3 n;
  let again, m = Clause_lint.prune_redundant pruned in
  check Alcotest.int "pruning is idempotent" 0 m;
  check Alcotest.int "stable body" (List.length pruned.Clause.body)
    (List.length again.Clause.body)

let prop_prune_preserves_coverage =
  qt ~count:300 "pruning never changes a coverage outcome"
    QCheck2.Gen.(pair clause_gen ground_clause_gen)
    (fun (c, d) ->
      let pruned, _ = Clause_lint.prune_redundant c in
      Subsume.subsumes c d = Subsume.subsumes pruned d)

let prop_prune_equivalent =
  qt ~count:200 "the pruned clause is θ-equivalent to the original"
    clause_gen
    (fun c ->
      let pruned, _ = Clause_lint.prune_redundant c in
      Subsume.equivalent c pruned)

let prop_prune_clean =
  qt ~count:200 "the pruned clause has no redundant literals left"
    clause_gen
    (fun c ->
      let pruned, _ = Clause_lint.prune_redundant c in
      Clause_lint.redundant_literal_indices pruned = [])

(* ---------------- suite --------------------------------------------- *)

let suite =
  [
    tc "clause/unsafe fires and stays quiet" test_unsafe;
    tc "clause/disconnected fires and stays quiet" test_disconnected;
    tc "clause/singleton-var fires and stays quiet" test_singleton;
    tc "clause/duplicate-literal fires and stays quiet" test_duplicate;
    tc "clause/redundant-literal fires and stays quiet" test_redundant;
    tc "clause/determinacy-depth fires and stays quiet" test_depth;
    tc "clause/unknown-relation fires and stays quiet" test_unknown_relation;
    tc "clause/arity-mismatch fires and stays quiet" test_arity;
    tc "clause/domain-conflict fires and stays quiet" test_domain_conflict;
    tc "parse errors become positioned diagnostics" test_parse_error;
    tc "clause lints carry the clause's source span" test_spans;
    tc "schema/duplicate-relation fires and stays quiet" test_duplicate_relation;
    tc "fd declaration lints fire and stay quiet" test_fd_decls;
    tc "ind declaration lints fire and stay quiet" test_ind_decls;
    tc "schema/cyclic-class fires and stays quiet" test_cyclic_class;
    tc "schema/subset-ind-cycle fires and stays quiet" test_subset_cycle;
    tc "schema/fd-ind-mismatch fires and stays quiet" test_fd_ind;
    tc "decomposition lints fire and stay quiet" test_transform_decompose;
    tc "composition lints fire and stay quiet" test_transform_compose;
    tc "mode/target-domain-unknown fires and stays quiet" test_mode_target;
    tc "mode pool lints fire and stay quiet" test_mode_pools;
    tc "mode/no-input-positions fires and stays quiet" test_mode_inputs;
    tc "mode/saturation-budget fires and stays quiet" test_mode_budget;
    tc "modes are inferred from the schema's fds" test_mode_inference;
    tc "inferred polarity: inputs, outputs and the constant override"
      test_mode_polarity;
    tc "backend/direct-instance-access fires and stays quiet" test_source_lint;
    tc "par/shared-mutable-state fires and stays quiet" test_par_shared;
    tc "par/shared-mutable-state crosses modules in whole-set runs"
      test_par_shared_cross_module;
    tc "par/swallowed-fatal fires and stays quiet" test_par_fatal;
    tc "gen/unchecked-mutation fires and stays quiet" test_gen_unchecked;
    tc "seed/ambient-randomness fires and stays quiet" test_seed_ambient;
    tc "castor-lint suppression comments mute matching rules"
      test_suppression;
    tc "the call graph links module-local and cross-module references"
      test_callgraph;
    tc "the fixed parallel/coverage/sweep sources lint clean"
      test_fixed_sources_clean;
    tc "a seeded unprotected Hashtbl in a worker closure is caught, with span"
      test_seeded_race_detected;
    tc "the rule catalog is consistent and 8+ rules fire" test_catalog;
    tc "the pre-learning gate rejects, warns and can be disabled"
      test_problem_gate;
    tc "the pruner counts what it removes" test_prune_counts;
    tc "the pruner reaches a fixpoint in one call" test_prune_fixpoint;
    prop_prune_preserves_coverage;
    prop_prune_equivalent;
    prop_prune_clean;
  ]
