(* Tests for the Castor core: plans (IND chase), IND repair,
   inclusion-instance negative reduction, the full learner. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Castor_learners
open Castor_core
open Helpers

let v s = Term.Var s

let family = Castor_datasets.Family.generate ()

let family_plan = Plan.build family.Castor_datasets.Dataset.schema

let family_problem () =
  let ds = family in
  let inst = ds.Castor_datasets.Dataset.instance in
  Problem.make
    ~expand:(fun r tu -> Plan.expand family_plan inst r tu)
    ~bottom_params:
      {
        Bottom.default_params with
        no_expand_domains = ds.Castor_datasets.Dataset.no_expand_domains;
        const_domains = List.map fst ds.Castor_datasets.Dataset.const_pool;
      }
    ~const_pool:ds.Castor_datasets.Dataset.const_pool inst
    ds.Castor_datasets.Dataset.target ds.Castor_datasets.Dataset.examples

(* ------------------------------- plan ------------------------------- *)

let plan_suite =
  [
    tc "chase pulls equality partners" (fun () ->
        let inst = family.Castor_datasets.Dataset.instance in
        (* gender[p] = ageGroup[p]: from a gender tuple the chase must
           fetch the matching ageGroup tuple *)
        let tu = List.hd (Instance.tuples inst "gender") in
        let got = Plan.expand family_plan inst "gender" tu in
        check Alcotest.bool "ageGroup partner" true
          (List.exists
             (fun (r, t) -> String.equal r "ageGroup" && Value.equal t.(0) tu.(0))
             got));
    tc "chase does not wander the data graph" (fun () ->
        let inst = family.Castor_datasets.Dataset.instance in
        let tu = List.hd (Instance.tuples inst "gender") in
        let got = Plan.expand family_plan inst "gender" tu in
        (* only the one partner relation is reachable in this class *)
        check Alcotest.bool "bounded" true (List.length got <= 2));
    tc "join_limit caps partners per link" (fun () ->
        let ds = Castor_datasets.Imdb.generate () in
        let inst = ds.Castor_datasets.Dataset.instance in
        let plan = Plan.build ~join_limit:2 ds.Castor_datasets.Dataset.schema in
        let d = List.hd (Instance.tuples inst "director") in
        let got = Plan.expand plan inst "director" d in
        let m2d = List.filter (fun (r, _) -> String.equal r "movies2director") got in
        check Alcotest.bool "capped" true (List.length m2d <= 2));
    tc "subset mode chases subset INDs too" (fun () ->
        let inst = family.Castor_datasets.Dataset.instance in
        let plan = Plan.build ~mode:`Subset_too family.Castor_datasets.Dataset.schema in
        (* parent[x] ⊆ gender[p]: chasing a parent tuple reaches gender *)
        let tu = List.hd (Instance.tuples inst "parent") in
        let got = Plan.expand plan inst "parent" tu in
        check Alcotest.bool "gender reached" true
          (List.exists (fun (r, _) -> String.equal r "gender") got));
  ]

(* ---------------------------- IND repair ---------------------------- *)

let repair_suite =
  let uw = Castor_datasets.Uwcse.generate () in
  let plan = Plan.build uw.Castor_datasets.Dataset.schema in
  let lit rel args = Atom.make rel args in
  [
    tc "orphaned class member removed (Example 7.6)" (fun () ->
        (* student(x) without inPhase/yearsInProgram partners violates
           the INDs with equality -> removed *)
        let c =
          Clause.make
            (lit "advisedBy" [ v "x"; v "y" ])
            [ lit "student" [ v "x" ]; lit "publication" [ v "t"; v "x" ] ]
        in
        let r = Ind_repair.repair plan c in
        check Alcotest.bool "student dropped" true
          (not (List.exists (fun (a : Atom.t) -> String.equal a.Atom.rel "student") r.Clause.body));
        check Alcotest.bool "publication kept" true
          (List.exists (fun (a : Atom.t) -> String.equal a.Atom.rel "publication") r.Clause.body));
    tc "complete class instance survives" (fun () ->
        let c =
          Clause.make
            (lit "advisedBy" [ v "x"; v "y" ])
            [
              lit "student" [ v "x" ];
              lit "inPhase" [ v "x"; v "p" ];
              lit "yearsInProgram" [ v "x"; v "n" ];
            ]
        in
        let r = Ind_repair.repair plan c in
        check Alcotest.int "all kept" 3 (Clause.length r));
    tc "mismatched projection does not count as partner" (fun () ->
        let c =
          Clause.make
            (lit "advisedBy" [ v "x"; v "y" ])
            [
              lit "student" [ v "x" ];
              lit "inPhase" [ v "OTHER"; v "p" ];
              lit "yearsInProgram" [ v "x"; v "n" ];
            ]
        in
        let r = Ind_repair.repair plan c in
        (* student(x) lacks an inPhase(x,_) partner -> cascade *)
        check Alcotest.bool "student dropped" true
          (not (List.exists (fun (a : Atom.t) -> String.equal a.Atom.rel "student") r.Clause.body)));
    tc "repair iterates to a fixpoint (cascade)" (fun () ->
        let c =
          Clause.make
            (lit "advisedBy" [ v "x"; v "y" ])
            [
              lit "student" [ v "x" ];
              lit "inPhase" [ v "x"; v "p" ];
              (* yearsInProgram missing entirely *)
            ]
        in
        let r = Ind_repair.repair plan c in
        check Alcotest.int "both dropped" 0 (Clause.length r));
  ]

(* ----------------------- inclusion-class instances ------------------ *)

let reduction_suite =
  let uw = Castor_datasets.Uwcse.generate () in
  let plan = Plan.build uw.Castor_datasets.Dataset.schema in
  let lit rel args = Atom.make rel args in
  [
    tc "instances group class members with matching projections" (fun () ->
        let body =
          [|
            lit "student" [ v "x" ];
            lit "inPhase" [ v "x"; v "p" ];
            lit "yearsInProgram" [ v "x"; v "n" ];
            lit "publication" [ v "t"; v "x" ];
          |]
        in
        let insts = Reduction.instances plan body in
        (* one instance of the student class (3 literals) + singleton
           publication *)
        check Alcotest.int "two instances" 2 (List.length insts);
        check Alcotest.bool "student instance has 3" true
          (List.exists (fun i -> List.length i = 3) insts));
    tc "two students give two instances" (fun () ->
        let body =
          [|
            lit "student" [ v "x" ];
            lit "inPhase" [ v "x"; v "p" ];
            lit "yearsInProgram" [ v "x"; v "n" ];
            lit "student" [ v "y" ];
            lit "inPhase" [ v "y"; v "q" ];
            lit "yearsInProgram" [ v "y"; v "m" ];
          |]
        in
        let insts = Reduction.instances plan body in
        check Alcotest.int "two instances" 2 (List.length insts));
    tc "reduction removes whole instances and preserves negatives" (fun () ->
        let p = family_problem () in
        let bc =
          Bottom.bottom_clause
            ~expand:(fun r tu -> Plan.expand family_plan p.Problem.instance r tu)
            ~params:p.Problem.bottom_params p.Problem.instance
            p.Problem.pos_cov.Coverage.examples.(0)
        in
        match Armg.generalize ~repair:(Ind_repair.repair family_plan) p.Problem.pos_cov bc 1 with
        | None -> Alcotest.fail "armg"
        | Some g ->
            let baseline = Coverage.covered_count p.Problem.neg_cov g in
            let red = Reduction.reduce family_plan p.Problem.neg_cov g in
            check Alcotest.bool "not longer" true (Clause.length red <= Clause.length g);
            check Alcotest.bool "negatives preserved" true
              (Coverage.covered_count p.Problem.neg_cov red <= baseline));
    tc "safe reduction keeps head variables" (fun () ->
        let p = family_problem () in
        let bc =
          Bottom.bottom_clause
            ~expand:(fun r tu -> Plan.expand family_plan p.Problem.instance r tu)
            ~params:p.Problem.bottom_params p.Problem.instance
            p.Problem.pos_cov.Coverage.examples.(0)
        in
        match Armg.generalize ~repair:(Ind_repair.repair family_plan) p.Problem.pos_cov bc 1 with
        | None -> Alcotest.fail "armg"
        | Some g ->
            let red = Reduction.reduce family_plan ~safe:true p.Problem.neg_cov g in
            check Alcotest.bool "safe" true (Clause.is_safe red));
  ]

(* ------------------------------ learner ----------------------------- *)

let castor_suite =
  [
    tc "Castor learns grandparent perfectly" (fun () ->
        let p = family_problem () in
        let def = Castor.learn p in
        check Alcotest.bool "nonempty" true (def.Clause.clauses <> []);
        let cover cov =
          List.fold_left
            (fun acc c ->
              let vec = Coverage.vector cov c in
              Array.mapi (fun i b -> b || acc.(i)) vec)
            (Array.make (Coverage.length cov) false)
            def.Clause.clauses
        in
        check Alcotest.int "all positives" (Coverage.length p.Problem.pos_cov)
          (Coverage.count (cover p.Problem.pos_cov));
        check Alcotest.int "no negatives" 0 (Coverage.count (cover p.Problem.neg_cov)));
    tc "safe mode produces safe definitions" (fun () ->
        let p = family_problem () in
        let def = Castor.learn ~params:{ Castor.default_params with safe = true } p in
        check Alcotest.bool "all safe" true (List.for_all Clause.is_safe def.Clause.clauses));
    tc "plan reuse does not change the output" (fun () ->
        let p1 = family_problem () in
        let d1 = Castor.learn ~params:{ Castor.default_params with reuse_plan = true } p1 in
        let p2 = family_problem () in
        let d2 = Castor.learn ~params:{ Castor.default_params with reuse_plan = false } p2 in
        check Alcotest.bool "same definitions" true (Subsume.definition_equivalent d1 d2));
    tc "parallel coverage does not change the output" (fun () ->
        let p1 = family_problem () in
        let d1 = Castor.learn ~params:{ Castor.default_params with domains = 1 } p1 in
        let p2 = family_problem () in
        let d2 = Castor.learn ~params:{ Castor.default_params with domains = 4 } p2 in
        check Alcotest.bool "same definitions" true (Subsume.definition_equivalent d1 d2));
    tc "minimize_bottom off still learns" (fun () ->
        let p = family_problem () in
        let def =
          Castor.learn ~params:{ Castor.default_params with minimize_bottom = false } p
        in
        check Alcotest.bool "nonempty" true (def.Clause.clauses <> []));
  ]

(* ------------------------- property checks -------------------------- *)

let property_suite =
  let p = family_problem () in
  let bottom i =
    Bottom.bottom_clause
      ~expand:(fun r tu -> Plan.expand family_plan p.Problem.instance r tu)
      ~params:p.Problem.bottom_params p.Problem.instance
      p.Problem.pos_cov.Coverage.examples.(i)
  in
  [
    qt ~count:20 "castor bottom clauses subsume their saturations"
      QCheck2.Gen.(int_bound (Coverage.length p.Problem.pos_cov - 1))
      (fun i -> Subsume.subsumes (bottom i) p.Problem.pos_cov.Coverage.bottoms.(i));
    qt ~count:20 "ind repair only removes literals"
      QCheck2.Gen.(int_bound (Coverage.length p.Problem.pos_cov - 1))
      (fun i ->
        let bc = bottom i in
        let r = Ind_repair.repair family_plan bc in
        List.for_all (fun l -> List.memq l bc.Clause.body) r.Clause.body);
    qt ~count:20 "repair is idempotent"
      QCheck2.Gen.(int_bound (Coverage.length p.Problem.pos_cov - 1))
      (fun i ->
        let r = Ind_repair.repair family_plan (bottom i) in
        Clause.length (Ind_repair.repair family_plan r) = Clause.length r);
    qt ~count:15 "armg + reduction never increase negative coverage"
      QCheck2.Gen.(
        tup2
          (int_bound (Coverage.length p.Problem.pos_cov - 1))
          (int_bound (Coverage.length p.Problem.pos_cov - 1)))
      (fun (s, i) ->
        match
          Armg.generalize ~repair:(Ind_repair.repair family_plan)
            p.Problem.pos_cov (bottom s) i
        with
        | None -> true
        | Some g ->
            let before = Coverage.covered_count p.Problem.neg_cov g in
            let red = Reduction.reduce family_plan p.Problem.neg_cov g in
            Coverage.covered_count p.Problem.neg_cov red <= before);
  ]

(* ------------------------ chase identity ---------------------------- *)

let chase_identity_suite =
  [
    tc "chase keeps partners that print alike" (fun () ->
        (* r[k] = s[k]: every s row of k1 partners r(k1,1). Printed,
           s(k1,5,c) and s(k1,"5",c) read alike, and so do
           s(k1,"a, b","c") and s(k1,"a","b, c") *)
        let at = Schema.attribute ~domain:"d" in
        let schema =
          Schema.make
            ~inds:[ Schema.ind_with_equality "r" [ "k" ] "s" [ "k" ] ]
            [
              Schema.relation "r" [ at "k"; at "x" ];
              Schema.relation "s" [ at "k"; at "y"; at "z" ];
            ]
        in
        let inst = Instance.create schema in
        let k = Value.str "k1" and str = Value.str in
        let r_tuple = Tuple.of_list [ k; Value.int 1 ] in
        Instance.add inst "r" r_tuple;
        let partners =
          List.map Tuple.of_list
            [
              [ k; Value.int 5; str "c" ];
              [ k; str "5"; str "c" ];
              [ k; str "a, b"; str "c" ];
              [ k; str "a"; str "b, c" ];
            ]
        in
        List.iter (Instance.add inst "s") partners;
        let got = Plan.expand (Plan.build schema) inst "r" r_tuple in
        List.iteri
          (fun i tu ->
            check Alcotest.bool
              (Fmt.str "partner %d, %a, chased" i Tuple.pp tu)
              true
              (List.exists
                 (fun (rel, t) -> String.equal rel "s" && Tuple.equal t tu)
                 got))
          partners;
        check Alcotest.int "no other tuple" 4 (List.length got));
  ]

let suite =
  plan_suite @ repair_suite @ reduction_suite @ castor_suite @ property_suite
  @ chase_identity_suite
