(* Tests for the logic substrate: terms, atoms, substitutions, clauses,
   θ-subsumption, lgg, evaluation, minimization, rewriting. *)

open Castor_relational
open Castor_logic
open Helpers
module Obs = Castor_obs.Obs

let v s = Term.Var s

let k s = Term.Const (Value.str s)

let atom r args = Atom.make r args

let cl h b = Clause.make h b

(* ------------------------------ terms ------------------------------ *)

let term_suite =
  [
    tc "vars vs consts" (fun () ->
        check Alcotest.bool "var" true (Term.is_var (v "x"));
        check Alcotest.bool "const" true (Term.is_const (k "a")));
    tc "atom vars in order" (fun () ->
        let a = atom "p" [ v "x"; k "a"; v "y"; v "x" ] in
        check Alcotest.(list string) "vars" [ "x"; "y"; "x" ] (Atom.vars a));
    tc "atom constants" (fun () ->
        let a = atom "p" [ v "x"; k "a"; k "b" ] in
        check Alcotest.(list string) "consts" [ "a"; "b" ]
          (List.map Value.to_string (Atom.constants a)));
    tc "ground atom to tuple" (fun () ->
        let a = atom "p" [ k "a"; k "b" ] in
        check Alcotest.bool "ground" true (Atom.is_ground a);
        check Alcotest.int "arity" 2 (Tuple.arity (Atom.to_tuple a)));
  ]

(* --------------------------- substitution -------------------------- *)

let subst_suite =
  [
    tc "match_atom binds variables" (fun () ->
        let pat = atom "p" [ v "x"; v "y" ] in
        let tgt = atom "p" [ k "a"; k "b" ] in
        match Subst.match_atom Subst.empty pat tgt with
        | None -> Alcotest.fail "should match"
        | Some s ->
            check Alcotest.bool "x->a" true
              (Term.equal (Subst.apply_term s (v "x")) (k "a")));
    tc "match_atom respects repeated variables" (fun () ->
        let pat = atom "p" [ v "x"; v "x" ] in
        check Alcotest.bool "same ok" true
          (Subst.match_atom Subst.empty pat (atom "p" [ k "a"; k "a" ]) <> None);
        check Alcotest.bool "diff fails" true
          (Subst.match_atom Subst.empty pat (atom "p" [ k "a"; k "b" ]) = None));
    tc "constants only match themselves" (fun () ->
        let pat = atom "p" [ k "a" ] in
        check Alcotest.bool "same" true
          (Subst.match_atom Subst.empty pat (atom "p" [ k "a" ]) <> None);
        check Alcotest.bool "diff" true
          (Subst.match_atom Subst.empty pat (atom "p" [ k "b" ]) = None));
    tc "apply_atom substitutes" (fun () ->
        let s = Subst.of_list [ ("x", k "a") ] in
        let a = Subst.apply_atom s (atom "p" [ v "x"; v "y" ]) in
        check Alcotest.string "applied" "p(a,y)" (Atom.to_string a));
  ]

(* ----------------------------- clauses ----------------------------- *)

let clause_suite =
  [
    tc "variables in order of first occurrence" (fun () ->
        let c = cl (atom "t" [ v "x" ]) [ atom "p" [ v "y"; v "x" ]; atom "q" [ v "z"; v "y" ] ] in
        check Alcotest.(list string) "vars" [ "x"; "y"; "z" ] (Clause.variables c));
    tc "is_safe" (fun () ->
        let safe = cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; v "y" ] ] in
        let unsafe = cl (atom "t" [ v "x" ]) [ atom "p" [ v "y"; v "z" ] ] in
        check Alcotest.bool "safe" true (Clause.is_safe safe);
        check Alcotest.bool "unsafe" false (Clause.is_safe unsafe));
    tc "head_connected drops islands" (fun () ->
        let c =
          cl (atom "t" [ v "x" ])
            [ atom "p" [ v "x"; v "y" ]; atom "q" [ v "z"; v "w" ]; atom "p" [ v "y"; v "u" ] ]
        in
        let c' = Clause.head_connected c in
        check Alcotest.int "two literals kept" 2 (Clause.length c'));
    tc "variabilize maps constants consistently" (fun () ->
        let c = cl (atom "t" [ k "a" ]) [ atom "p" [ k "a"; k "b" ]; atom "q" [ k "b"; k "c" ] ] in
        let c', table = Clause.variabilize c in
        check Alcotest.int "three distinct vars" 3 (Value.Map.cardinal table);
        check Alcotest.int "same length" 2 (Clause.length c');
        (* shared constant b becomes the same variable in both literals *)
        match c'.Clause.body with
        | [ a1; a2 ] ->
            check Alcotest.bool "b consistent" true
              (Term.equal a1.Atom.args.(1) a2.Atom.args.(0))
        | _ -> Alcotest.fail "bad body");
    tc "dedup_body removes duplicates" (fun () ->
        let c = cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; v "y" ]; atom "p" [ v "x"; v "y" ] ] in
        check Alcotest.int "one" 1 (Clause.length (Clause.dedup_body c)));
    qt ~count:60 "head_connected preserves safety of safe clauses" clause_gen (fun c ->
        let c' = Clause.head_connected c in
        (not (Clause.is_safe c)) || Clause.is_safe c');
  ]

(* ---------------------------- subsumption --------------------------- *)

let subsume_suite =
  [
    tc "renaming subsumes" (fun () ->
        let c1 = cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; v "y" ] ] in
        let c2 = cl (atom "t" [ v "a" ]) [ atom "p" [ v "a"; v "b" ] ] in
        check Alcotest.bool "c1 <= c2" true (Subsume.subsumes c1 c2);
        check Alcotest.bool "c2 <= c1" true (Subsume.subsumes c2 c1));
    tc "generalization subsumes specialization" (fun () ->
        let gen = cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; v "y" ] ] in
        let spec = cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; k "a" ]; atom "q" [ v "x"; v "z" ] ] in
        check Alcotest.bool "gen subsumes spec" true (Subsume.subsumes gen spec);
        check Alcotest.bool "spec not subsumes gen" false (Subsume.subsumes spec gen));
    tc "head mismatch fails" (fun () ->
        let c1 = cl (atom "t" [ k "a" ]) [] in
        let c2 = cl (atom "t" [ k "b" ]) [] in
        check Alcotest.bool "no" false (Subsume.subsumes c1 c2));
    tc "shared variable forces consistent mapping" (fun () ->
        let c = cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; v "y" ]; atom "q" [ v "y"; v "z" ] ] in
        let d1 =
          cl (atom "t" [ k "a" ]) [ atom "p" [ k "a"; k "b" ]; atom "q" [ k "b"; k "c" ] ]
        in
        let d2 =
          cl (atom "t" [ k "a" ]) [ atom "p" [ k "a"; k "b" ]; atom "q" [ k "x" ; k "c" ] ]
        in
        check Alcotest.bool "chained yes" true (Subsume.subsumes c d1);
        check Alcotest.bool "broken chain no" false (Subsume.subsumes c d2));
    tc "subsuming_subst returns a witness" (fun () ->
        let c = cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; v "y" ] ] in
        let d = cl (atom "t" [ k "a" ]) [ atom "p" [ k "a"; k "b" ] ] in
        match Subsume.subsuming_subst c d with
        | None -> Alcotest.fail "expected witness"
        | Some s ->
            let applied = Clause.apply_subst s c in
            check Alcotest.bool "image inside d" true
              (List.for_all
                 (fun lit -> List.exists (Atom.equal lit) d.Clause.body)
                 applied.Clause.body));
    qt ~count:300 "optimized engine agrees with naive engine"
      QCheck2.Gen.(tup2 clause_gen ground_clause_gen)
      (fun (c, d) -> Subsume.subsumes c d = Subsume.subsumes_naive c d);
    qt ~count:100 "subsumption is reflexive" clause_gen (fun c ->
        Subsume.subsumes c c);
    qt ~count:100 "ground clauses subsume themselves" ground_clause_gen (fun c ->
        Subsume.subsumes c c);
    qt ~count:100 "prefix clauses subsume extensions" ground_clause_gen (fun c ->
        match c.Clause.body with
        | [] -> true
        | _ :: rest -> Subsume.subsumes { c with Clause.body = rest } c);
  ]

(* -------------------------------- lgg ------------------------------- *)

let lgg_suite =
  [
    tc "lgg of identical clause is equivalent" (fun () ->
        let c = cl (atom "t" [ k "a" ]) [ atom "p" [ k "a"; k "b" ] ] in
        match Lgg.clauses c c with
        | None -> Alcotest.fail "compatible heads"
        | Some g -> check Alcotest.bool "equivalent" true (Subsume.equivalent g c));
    tc "lgg generalizes differing constants to one variable" (fun () ->
        let c1 = cl (atom "t" [ k "a" ]) [ atom "p" [ k "a"; k "b" ] ] in
        let c2 = cl (atom "t" [ k "c" ]) [ atom "p" [ k "c"; k "d" ] ] in
        match Lgg.clauses c1 c2 with
        | None -> Alcotest.fail "compatible"
        | Some g ->
            check Alcotest.bool "subsumes c1" true (Subsume.subsumes g c1);
            check Alcotest.bool "subsumes c2" true (Subsume.subsumes g c2);
            check Alcotest.bool "head var" true
              (Term.is_var g.Clause.head.Atom.args.(0)));
    tc "incompatible heads give None" (fun () ->
        let c1 = cl (atom "t" [ k "a" ]) [] in
        let c2 = cl (atom "u" [ k "a" ]) [] in
        check Alcotest.bool "none" true (Lgg.clauses c1 c2 = None));
    tc "shared pairs map to the same variable" (fun () ->
        (* lgg(p(a,a), p(b,b)) = p(X,X), not p(X,Y) *)
        let c1 = cl (atom "t" [ k "a" ]) [ atom "p" [ k "a"; k "a" ] ] in
        let c2 = cl (atom "t" [ k "b" ]) [ atom "p" [ k "b"; k "b" ] ] in
        match Lgg.clauses c1 c2 with
        | Some g -> (
            match g.Clause.body with
            | [ a ] ->
                check Alcotest.bool "same var" true
                  (Term.equal a.Atom.args.(0) a.Atom.args.(1))
            | _ -> Alcotest.fail "one literal")
        | None -> Alcotest.fail "compatible");
    qt ~count:150 "lgg subsumes both inputs"
      QCheck2.Gen.(tup2 ground_clause_gen ground_clause_gen)
      (fun (c1, c2) ->
        match Lgg.clauses c1 c2 with
        | None -> true
        | Some g ->
            (* head-connectedness pruning may drop literals, which only
               makes g more general *)
            Subsume.subsumes g c1 && Subsume.subsumes g c2);
  ]

(* ---------------------------- evaluation ---------------------------- *)

let eval_suite =
  let inst =
    let inst = Instance.create abc_schema in
    List.iter
      (fun (a, b, c) ->
        Instance.add_list inst "r" [ Value.str a; Value.str b; Value.str c ])
      [ ("a1", "b1", "c1"); ("a2", "b1", "c2"); ("a3", "b2", "c1") ];
    inst
  in
  [
    tc "covers finds a satisfying binding" (fun () ->
        let c =
          cl (atom "t" [ v "x" ]) [ atom "r" [ v "x"; k "b1"; v "z" ] ]
        in
        check Alcotest.bool "a1 covered" true
          (Eval.covers inst c (atom "t" [ k "a1" ]));
        check Alcotest.bool "a3 not covered" false
          (Eval.covers inst c (atom "t" [ k "a3" ])));
    tc "answers enumerates distinct heads" (fun () ->
        let c = cl (atom "t" [ v "x" ]) [ atom "r" [ v "x"; v "y"; k "c1" ] ] in
        check Alcotest.int "two answers" 2 (Tuple.Set.cardinal (Eval.answers inst c)));
    tc "join across literals" (fun () ->
        (* pairs sharing the same b *)
        let c =
          cl (atom "t" [ v "x"; v "y" ])
            [ atom "r" [ v "x"; v "b"; v "c1" ]; atom "r" [ v "y"; v "b"; v "c2" ] ]
        in
        let ans = Eval.answers inst c in
        check Alcotest.bool "(a1,a2) found" true
          (Tuple.Set.mem (Tuple.of_list [ Value.str "a1"; Value.str "a2" ]) ans));
    tc "definition_covers over multiple clauses" (fun () ->
        let d =
          {
            Clause.target = "t";
            clauses =
              [
                cl (atom "t" [ v "x" ]) [ atom "r" [ v "x"; k "b2"; v "z" ] ];
                cl (atom "t" [ v "x" ]) [ atom "r" [ v "x"; v "y"; k "c2" ] ];
              ];
          }
        in
        check Alcotest.bool "a2 by clause 2" true
          (Eval.definition_covers inst d (atom "t" [ k "a2" ]));
        check Alcotest.bool "a3 by clause 1" true
          (Eval.definition_covers inst d (atom "t" [ k "a3" ]));
        check Alcotest.bool "a1 uncovered" false
          (Eval.definition_covers inst d (atom "t" [ k "a1" ])));
    tc "unsafe clause rejected by answers" (fun () ->
        let c = cl (atom "t" [ v "x"; v "free" ]) [ atom "r" [ v "x"; v "y"; v "z" ] ] in
        Alcotest.check_raises "invalid"
          (Invalid_argument "Eval.answers: unsafe clause (unbound head variable)")
          (fun () -> ignore (Eval.answers inst c)));
  ]

(* --------------------------- minimization --------------------------- *)

let minimize_suite =
  [
    tc "absorbed duplicate literal removed" (fun () ->
        (* p(x,y), p(x,z) with z private: second literal absorbed *)
        let c =
          cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; v "y" ]; atom "p" [ v "x"; v "z" ]; atom "q" [ v "y"; v "w" ] ]
        in
        let r = Minimize.reduce c in
        check Alcotest.int "two literals" 2 (Clause.length r);
        check Alcotest.bool "equivalent" true (Subsume.equivalent c r));
    tc "essential literals survive" (fun () ->
        let c =
          cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; v "y" ]; atom "q" [ v "y"; v "z" ] ]
        in
        check Alcotest.int "unchanged" 2 (Clause.length (Minimize.reduce c)));
    tc "exact tier reduces chains the absorbed rule misses" (fun () ->
        (* p(x,y1),q(y1,z1),p(x,y2),q(y2,z2): whole second chain redundant *)
        let c =
          cl (atom "t" [ v "x" ])
            [
              atom "p" [ v "x"; v "y1" ]; atom "q" [ v "y1"; v "z1" ];
              atom "p" [ v "x"; v "y2" ]; atom "q" [ v "y2"; v "z2" ];
            ]
        in
        let r = Minimize.reduce ~exact_below:40 c in
        check Alcotest.int "chain folded" 2 (Clause.length r);
        check Alcotest.bool "equivalent" true (Subsume.equivalent c r));
    qt ~count:100 "reduce preserves θ-equivalence" clause_gen (fun c ->
        let r = Minimize.reduce c in
        Subsume.equivalent c r);
    qt ~count:100 "reduce never grows the clause" clause_gen (fun c ->
        Clause.length (Minimize.reduce c) <= Clause.length c);
    qt ~count:200
      "a target with one literal left out answers like prepare of the \
       shortened clause"
      QCheck2.Gen.(pair (oneof [ clause_gen; ground_clause_gen ]) clause_gen)
      (fun (c, other) ->
        (* same answer, same search steps and arc-consistency scans,
           under a budget small enough to run out and the default one *)
        let left_out = Subsume.leave_out (Subsume.prepare c) c in
        let run pattern max_steps p =
          let work () =
            ( Obs.Counter.value Subsume.c_steps,
              Obs.Counter.value Subsume.c_ac_scans )
          in
          let s0, a0 = work () in
          let r = Subsume.subsumes_compiled ~max_steps pattern p in
          let s1, a1 = work () in
          (r, s1 - s0, a1 - a0)
        in
        List.for_all
          (fun i ->
            let shorter =
              { c with Clause.body = List.filteri (fun j _ -> j <> i) c.Clause.body }
            in
            List.for_all
              (fun pattern ->
                List.for_all
                  (fun max_steps ->
                    run pattern max_steps (left_out i)
                    = run pattern max_steps (Subsume.prepare shorter))
                  [ 2; 60_000 ])
              (List.map Subsume.compile [ c; other; shorter ]))
          (List.init (Clause.length c) Fun.id));
  ]

(* ----------------------------- rewriting ---------------------------- *)

let rewrite_suite =
  [
    tc "decomposition direction splits literals" (fun () ->
        let c = cl (atom "t" [ v "x" ]) [ atom "r" [ v "x"; v "y"; v "z" ] ] in
        let c' = Rewrite.clause abc_schema abc_decomposition c in
        check Alcotest.int "two part literals" 2 (Clause.length c');
        check Alcotest.(list string) "relations" [ "r1"; "r2" ]
          (List.map (fun (a : Atom.t) -> a.Atom.rel) c'.Clause.body));
    tc "composition direction merges with fresh variables" (fun () ->
        let s = Transform.apply_schema abc_schema abc_decomposition in
        let c = cl (atom "t" [ v "x" ]) [ atom "r1" [ v "x"; v "y" ] ] in
        let c' =
          Rewrite.clause s
            [ Transform.Compose { parts = [ "r1"; "r2" ]; into = "r" } ]
            c
        in
        (match c'.Clause.body with
        | [ a ] ->
            check Alcotest.string "relation" "r" a.Atom.rel;
            check Alcotest.int "arity 3" 3 (Atom.arity a);
            check Alcotest.bool "fresh last var" true (Term.is_var a.Atom.args.(2))
        | _ -> Alcotest.fail "one literal expected"));
    tc "δτ preserves results over transformed instances (Prop 3.7)" (fun () ->
        let inst = abc_instance () in
        let j = Transform.apply_instance inst abc_decomposition in
        (* query over the base schema *)
        let h = cl (atom "t" [ v "x" ]) [ atom "r" [ v "x"; k "b1"; v "z" ] ] in
        let h' = Rewrite.clause abc_schema abc_decomposition h in
        check Alcotest.bool "same answers" true
          (Tuple.Set.equal (Eval.answers inst h) (Eval.answers j h')));
    qt ~count:40 "δτ preserves answers on random instances" abc_instance_gen
      (fun inst ->
        let j = Transform.apply_instance inst abc_decomposition in
        let h =
          cl (atom "t" [ v "x"; v "y" ]) [ atom "r" [ v "x"; v "y"; v "z" ] ]
        in
        let h' = Rewrite.clause abc_schema abc_decomposition h in
        Tuple.Set.equal (Eval.answers inst h) (Eval.answers j h'));
  ]

(* ---------------- differential subsumption battery ---------------- *)

(* Seeded generator of clause pairs, swept over signature shapes. The
   relation name carries its arity ("r2" is binary) so every occurrence
   of a relation is arity-consistent, as the compiled engine assumes.
   Targets mix ground constants with frozen variables (z0, z1): both
   engines treat target variables as constants, and the battery checks
   they do so identically. *)
let differential_suite =
  let pair_gen st ~vars ~consts ~max_arity ~body_len ~target_len =
    let pattern_term () =
      if Random.State.bool st then
        Term.Var (Printf.sprintf "x%d" (Random.State.int st vars))
      else Term.Const (Value.str (Printf.sprintf "k%d" (Random.State.int st consts)))
    in
    let target_term () =
      if Random.State.int st 100 < 15 then
        Term.Var (Printf.sprintf "z%d" (Random.State.int st 2))
      else
        (* one constant beyond the pattern's pool, so some targets are
           unreachable by any substitution *)
        Term.Const (Value.str (Printf.sprintf "k%d" (Random.State.int st (consts + 1))))
    in
    let random_atom term =
      let a = 1 + Random.State.int st max_arity in
      atom (Printf.sprintf "r%d" a) (List.init a (fun _ -> term ()))
    in
    let c =
      cl
        (atom "t" [ pattern_term () ])
        (List.init (Random.State.int st (body_len + 1)) (fun _ ->
             random_atom pattern_term))
    in
    let d =
      cl
        (atom "t" [ target_term () ])
        (List.init (Random.State.int st (target_len + 1)) (fun _ ->
             random_atom target_term))
    in
    (c, d)
  in
  (* generous budgets on both engines so disagreement can only come
     from the search logic, never from budget mismatch *)
  let agree c d =
    let opt = Subsume.subsumes ~max_steps:50_000_000 c d in
    let naive = Subsume.subsumes_naive ~max_steps:50_000_000 c d in
    if opt <> naive then
      Alcotest.failf "engines disagree (optimized=%b): %s" opt
        (clause_pair_print (c, d));
    (* a budget-limited positive must still be a real subsumption *)
    if Subsume.subsumes ~max_steps:200 c d && not naive then
      Alcotest.failf "budgeted engine invented a subsumption: %s"
        (clause_pair_print (c, d))
  in
  [
    tc "optimized = naive on 600 seeded pairs across signature shapes"
      (fun () ->
        let st = Random.State.make [| 0x5eed |] in
        List.iter
          (fun (vars, consts, max_arity, body_len) ->
            for _ = 1 to 120 do
              let c, d =
                pair_gen st ~vars ~consts ~max_arity ~body_len
                  ~target_len:(body_len + 2)
              in
              agree c d
            done)
          [ (2, 2, 2, 3); (4, 3, 3, 5); (5, 2, 2, 6); (3, 4, 3, 4); (6, 3, 2, 6) ];
        (* Then a wide shape: patterns of up to two literals against up
           to 160 literals over 401 constants. The answers kept are
           those of tests that reach arc consistency on targets with
           more ids than two words of a domain hold: the heads match,
           the pattern has a body, and each of its relations occurs in
           the target. *)
        let wide = ref [] in
        for _ = 1 to 240 do
          let c, d =
            pair_gen st ~vars:8 ~consts:400 ~max_arity:3 ~body_len:2
              ~target_len:160
          in
          agree c d;
          let p = Subsume.prepare d in
          if
            Array.length p.Subsume.terms > 2 * Sys.int_size
            && c.Clause.body <> []
            && Subst.match_atom Subst.empty c.Clause.head d.Clause.head <> None
            && List.for_all
                 (fun (l : Atom.t) ->
                   List.exists
                     (fun (m : Atom.t) -> String.equal l.Atom.rel m.Atom.rel)
                     d.Clause.body)
                 c.Clause.body
          then
            match Subsume.subsumes_compiled (Subsume.compile c) p with
            | Some b -> wide := b :: !wide
            | None -> Alcotest.fail "a wide test ran out of the default budget"
        done;
        check Alcotest.bool "wide targets reached arc consistency" true
          (List.length !wide >= 10);
        check Alcotest.bool "both answers on wide targets" true
          (List.mem true !wide && List.mem false !wide);
        (* A chain of 201 constants whose head is link 150: ids follow
           first occurrence, so every witness binds y and z to ids past
           the first two words of a domain. *)
        let chain =
          cl
            (atom "t" [ k "k150" ])
            (List.init 200 (fun i ->
                 atom "r2"
                   [ k (Printf.sprintf "k%d" i); k (Printf.sprintf "k%d" (i + 1)) ]))
        in
        List.iter
          (fun (y_to, expected) ->
            let c =
              cl (atom "t" [ v "x" ])
                [ atom "r2" [ v "x"; v "y" ]; atom "r2" [ v "y"; v y_to ] ]
            in
            agree c chain;
            check Alcotest.bool ("chain through " ^ y_to) expected
              (Subsume.subsumes c chain))
          [ ("z", true); ("x", false) ]);
    tc "agreement on head mismatch and empty bodies" (fun () ->
        let c_empty = cl (atom "t" [ v "x" ]) [] in
        let d = cl (atom "t" [ k "a" ]) [ atom "r2" [ k "a"; k "b" ] ] in
        agree c_empty d;
        agree (cl (atom "u" [ v "x" ]) [ atom "r2" [ v "x"; v "y" ] ]) d;
        agree c_empty (cl (atom "t" [ k "a" ]) []);
        agree (cl (atom "t" [ k "b" ]) []) (cl (atom "t" [ k "a" ]) []));
    tc "budget exhaustion reports false and bumps its counter" (fun () ->
        let c = cl (atom "t" [ v "x" ]) [ atom "r2" [ v "x"; v "y" ] ] in
        let d = cl (atom "t" [ k "a" ]) [ atom "r2" [ k "a"; k "b" ] ] in
        let before = Castor_obs.Obs.Counter.value Subsume.c_budget_exhausted in
        (* head matches and arc-consistency passes, so the zero-step
           budget is exhausted on the first search step *)
        check Alcotest.bool "gives up conservatively" false
          (Subsume.subsumes ~max_steps:0 c d);
        let after = Castor_obs.Obs.Counter.value Subsume.c_budget_exhausted in
        check Alcotest.int "counted exactly once" 1 (after - before);
        check Alcotest.bool "still subsumes with budget" true
          (Subsume.subsumes c d));
    tc "budget battery: a budgeted prepared answer is None or the naive one"
      (fun () ->
        (* cyclic patterns over dense/symmetric edge sets are not
           tree-structured, so arc-consistency cannot decide them and
           the backtracking search really runs; a 2-step budget cuts
           most searched pairs short, and the prepared call must say
           so instead of guessing, then answer like the naive engine
           once the budget is lifted, as coverage's fallback does *)
        let exhausted = ref 0 in
        let node i m = k (Printf.sprintf "n%d" (i mod m)) in
        for seed = 0 to 39 do
          let st = Random.State.make [| 0xbeef + seed |] in
          let m = 5 + (seed mod 3) in
          let cyclic = seed mod 2 = 0 in
          let forward =
            (* acyclic targets have no closed walks: unsatisfiable for
               any cycle pattern, and only discoverable by search *)
            List.init (m - 1) (fun i -> atom "p" [ node i m; node (i + 1) m ])
          in
          let edges =
            if cyclic then
              List.init m (fun i -> atom "p" [ node i m; node (i + 1) m ])
              @ List.init m (fun i -> atom "p" [ node (i + 1) m; node i m ])
            else forward
          in
          let chords =
            List.init
              (2 + (seed mod 3))
              (fun _ ->
                let i = Random.State.int st m in
                let j = Random.State.int st m in
                if cyclic then atom "p" [ node i m; node j m ]
                else
                  (* keep acyclic targets acyclic: chords go forward *)
                  let lo = min i j and hi = max i j in
                  if lo = hi then atom "p" [ node lo m; node (lo + 1) m ]
                  else atom "p" [ node lo m; node hi m ])
          in
          let l = 4 + (seed mod 4) in
          let y i = v (Printf.sprintf "y%d" (i mod l)) in
          let c =
            cl (atom "t" [ v "h" ]) (List.init l (fun i -> atom "p" [ y i; y (i + 1) ]))
          in
          let d = cl (atom "t" [ node 0 m ]) (edges @ chords) in
          let naive = Subsume.subsumes_naive ~max_steps:50_000_000 c d in
          let p = Subsume.prepare d in
          match Subsume.subsumes_prepared ~max_steps:2 c p with
          | None ->
              incr exhausted;
              check
                Alcotest.(option bool)
                (Fmt.str "seed %d without a budget" seed)
                (Some naive)
                (Subsume.subsumes_prepared ~max_steps:max_int c p)
          | Some opt when opt = naive -> ()
          | Some opt ->
              Alcotest.failf
                "budgeted engine disagrees (optimized=%b, seed=%d): %s" opt
                seed
                (clause_pair_print (c, d))
        done;
        check Alcotest.bool "at least one search ran out of budget" true
          (!exhausted > 0));
  ]

(* ---------------- coverage-memo key and literal identity --------- *)

let variant_key_suite =
  (* apply a random variable bijection *)
  let rename st (c : Clause.t) =
    let vars = Clause.variables c in
    let n = List.length vars in
    let perm = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let table = Hashtbl.create 8 in
    List.iteri
      (fun i var -> Hashtbl.add table var (Printf.sprintf "w%d" perm.(i)))
      vars;
    let ren = function
      | Term.Var var -> Term.Var (Hashtbl.find table var)
      | Term.Const _ as t -> t
    in
    let conv (a : Atom.t) = { a with Atom.args = Array.map ren a.Atom.args } in
    Clause.make (conv c.Clause.head) (List.map conv c.Clause.body)
  in
  [
    qt ~count:500 "variant_key is invariant under renaming"
      QCheck2.Gen.(pair clause_gen (int_bound 1_000_000))
      (fun (c, seed) ->
        let st = Random.State.make [| seed |] in
        String.equal (Clause.variant_key c) (Clause.variant_key (rename st c)));
    qt ~count:500 "equal variant keys imply θ-equivalence (soundness)"
      QCheck2.Gen.(pair clause_gen clause_gen)
      (fun (c, d) ->
        (not (String.equal (Clause.variant_key c) (Clause.variant_key d)))
        || Subsume.equivalent c d);
    tc "distinct structures get distinct keys" (fun () ->
        (* p(x,x) against p(x,y); then constants of either kind that
           print alike, or like a variable or a key delimiter *)
        let key arg =
          Clause.variant_key (cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; arg ] ])
        in
        let args =
          [
            v "x";
            v "y";
            Term.Const (Value.int 5);
            k "5";
            k "_1";
            k "#5";
            k "a\"b";
            k "a\",\"b";
          ]
        in
        let keys = List.map key args in
        check Alcotest.int "all distinct" (List.length keys)
          (List.length (List.sort_uniq String.compare keys)));
    tc "dedup_body keeps literals that only print alike" (fun () ->
        (* a variable and a string constant both print as a; the int 5
           and the string "5" both print as 5 *)
        let five = Term.Const (Value.int 5) in
        let body =
          [
            atom "p" [ v "x"; v "a" ];
            atom "p" [ v "x"; k "a" ];
            atom "q" [ v "x"; five ];
            atom "q" [ v "x"; k "5" ];
          ]
        in
        let c = cl (atom "t" [ v "x" ]) body in
        check Alcotest.int "all four survive" 4
          (Clause.length (Clause.dedup_body c));
        let dup = cl (atom "t" [ v "x" ]) (body @ [ atom "q" [ v "x"; five ] ]) in
        check Alcotest.int "a true duplicate is removed" 4
          (Clause.length (Clause.dedup_body dup)));
  ]

let budget_suite =
  [
    tc "exhausted budget reports non-subsumption, generous budget succeeds"
      (fun () ->
        (* a chain pattern over a dense target forces real search *)
        let var i = v (Printf.sprintf "y%d" i) in
        let body = List.init 6 (fun i -> atom "p" [ var i; var (i + 1) ]) in
        let c = cl (atom "t" [ var 0 ]) body in
        let target_body =
          List.concat_map
            (fun i ->
              List.map
                (fun j -> atom "p" [ k (Printf.sprintf "n%d" i); k (Printf.sprintf "n%d" j) ])
                [ (i + 1) mod 5; (i + 2) mod 5 ])
            [ 0; 1; 2; 3; 4 ]
        in
        let d = cl (atom "t" [ k "n0" ]) target_body in
        check Alcotest.bool "succeeds with budget" true
          (Subsume.subsumes ~max_steps:100_000 c d);
        (* with a one-step budget the engine gives up conservatively *)
        check Alcotest.bool "fails with tiny budget" false
          (Subsume.subsumes ~max_steps:1 c d));
    tc "budget exhaustion is conservative (never reports false positives)"
      (fun () ->
        let c = cl (atom "t" [ v "x" ]) [ atom "p" [ v "x"; k "zzz" ] ] in
        let d = cl (atom "t" [ k "a" ]) [ atom "p" [ k "a"; k "b" ] ] in
        check Alcotest.bool "no" false (Subsume.subsumes ~max_steps:1 c d));
    tc "subsumes_prepared reports a spent budget as None, not as an answer"
      (fun () ->
        let c = cl (atom "t" [ v "x" ]) [ atom "r2" [ v "x"; v "y" ] ] in
        let p =
          Subsume.prepare (cl (atom "t" [ k "a" ]) [ atom "r2" [ k "a"; k "b" ] ])
        in
        (* head matches and arc-consistency passes, so a zero-step
           budget runs out on the first search step *)
        check Alcotest.(option bool) "zero budget" None
          (Subsume.subsumes_prepared ~max_steps:0 c p);
        check Alcotest.(option bool) "generous budget" (Some true)
          (Subsume.subsumes_prepared ~max_steps:100 c p));
    tc "one compiled pattern answers every target like a fresh compile"
      (fun () ->
        (* [h] occurs only in the head. The first two targets intern
           the same ids in the same order, so [a]'s id in one is [b]'s
           in the other: a constant id kept from an earlier target
           flips an answer. *)
        let c =
          cl
            (atom "t" [ v "x"; v "h" ])
            [ atom "p" [ v "x"; v "y" ]; atom "q" [ v "y"; k "a" ] ]
        in
        let targets =
          [
            ("holds the constant", cl (atom "t" [ k "n1"; k "n9" ])
               [ atom "p" [ k "n1"; k "n2" ]; atom "q" [ k "n2"; k "a" ] ]);
            ("lacks the constant", cl (atom "t" [ k "n1"; k "n9" ])
               [ atom "p" [ k "n1"; k "n2" ]; atom "q" [ k "n2"; k "b" ] ]);
            ("head-only variable binds a frozen one", cl (atom "t" [ k "n1"; v "z" ])
               [ atom "p" [ k "n1"; k "n2" ]; atom "q" [ k "n2"; k "a" ] ]);
            ("repeated frozen variable", cl (atom "t" [ v "z"; v "z" ])
               [ atom "p" [ v "z"; v "z" ]; atom "q" [ v "z"; k "a" ] ]);
            ("p of another arity only", cl (atom "t" [ k "n1"; k "n9" ])
               [ atom "p" [ k "n1"; k "n2"; k "n3" ]; atom "q" [ k "n2"; k "a" ] ]);
            ("p of both arities", cl (atom "t" [ k "n1"; k "n9" ])
               [ atom "p" [ k "n1"; k "n2"; k "n3" ]; atom "p" [ k "n1"; k "n3" ];
                 atom "q" [ k "n3"; k "a" ] ]);
          ]
        in
        let cc = Subsume.compile c in
        let exhausted = ref 0 in
        let test (name, d) =
          let p = Subsume.prepare d in
          let naive = Subsume.subsumes_naive c d in
          check Alcotest.(option bool) (name ^ ": as a fresh compile")
            (Subsume.subsumes_prepared c p) (Subsume.subsumes_compiled cc p);
          check Alcotest.(option bool) (name ^ ": as the naive engine")
            (Some naive) (Subsume.subsumes_compiled cc p);
          match Subsume.subsumes_compiled ~max_steps:0 cc p with
          | None ->
              incr exhausted;
              check Alcotest.(option bool) (name ^ ": rerun without a budget")
                (Some naive)
                (Subsume.subsumes_compiled ~max_steps:max_int cc p)
          | Some b -> check Alcotest.bool (name ^ ": refuted before search") naive b
        in
        List.iter test targets;
        List.iter test (List.rev targets);
        check Alcotest.(list bool) "answers"
          [ true; false; true; true; false; true ]
          (List.map (fun (_, d) -> Subsume.subsumes c d) targets);
        check Alcotest.bool "some tests ran out of a zero budget" true
          (!exhausted > 0));
  ]

let suite =
  term_suite @ subst_suite @ clause_suite @ subsume_suite @ differential_suite
  @ variant_key_suite @ lgg_suite @ eval_suite @ minimize_suite @ rewrite_suite
  @ budget_suite
