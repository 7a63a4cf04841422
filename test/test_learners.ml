(* Tests for the baseline learners: FOIL, Progol/Aleph emulation,
   Golem, ProGolem. Learning runs use the small family dataset so the
   suite stays fast. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Castor_learners
open Helpers

let family = Castor_datasets.Family.generate ()

let problem () =
  let ds = family in
  Problem.make
    ~bottom_params:
      {
        Bottom.default_params with
        no_expand_domains = ds.Castor_datasets.Dataset.no_expand_domains;
        const_domains = List.map fst ds.Castor_datasets.Dataset.const_pool;
      }
    ~const_pool:ds.Castor_datasets.Dataset.const_pool
    ds.Castor_datasets.Dataset.instance ds.Castor_datasets.Dataset.target
    ds.Castor_datasets.Dataset.examples

let train_metrics (p : Problem.t) def =
  let pos = Coverage.vector p.Problem.pos_cov (List.hd def.Clause.clauses) in
  ignore pos;
  let cover cov =
    List.fold_left
      (fun acc c ->
        let v = Coverage.vector cov c in
        Array.mapi (fun i b -> b || acc.(i)) v)
      (Array.make (Coverage.length cov) false)
      def.Clause.clauses
  in
  let tp = Coverage.count (cover p.Problem.pos_cov) in
  let fp = Coverage.count (cover p.Problem.neg_cov) in
  (tp, fp)

let learns_well name learn =
  tc name (fun () ->
      let p = problem () in
      let def = learn p in
      check Alcotest.bool "some clause" true (def.Clause.clauses <> []);
      let tp, fp = train_metrics p def in
      let n_pos = Coverage.length p.Problem.pos_cov in
      check Alcotest.bool "recall > 0.8" true
        (float_of_int tp /. float_of_int n_pos > 0.8);
      check Alcotest.bool "precision > 0.8" true
        (float_of_int tp /. float_of_int (tp + fp) > 0.8))

let problem_suite =
  [
    tc "Problem.head is most general" (fun () ->
        let p = problem () in
        let h = Problem.head p in
        check Alcotest.string "head" "grandparent(X0,X1)" (Atom.to_string h));
    tc "Problem.head_domains follow the target declaration" (fun () ->
        let p = problem () in
        check Alcotest.(list string) "domains" [ "person"; "person" ]
          (Problem.head_domains p));
  ]

let foil_suite =
  [
    learns_well "FOIL learns grandparent on family" (fun p -> Foil.learn p);
    tc "FOIL candidate generation types variables" (fun () ->
        let p = problem () in
        let schema = Instance.schema p.Problem.instance in
        let cands =
          Foil.candidates schema p.Problem.const_pool
            [ ("X0", "person"); ("X1", "person") ]
            "s0" 1000
        in
        check Alcotest.bool "nonempty" true (cands <> []);
        (* no candidate puts a person variable in a gender slot *)
        check Alcotest.bool "no type confusion" true
          (List.for_all
             (fun (a : Atom.t) ->
               not
                 (String.equal a.Atom.rel "gender"
                 && (Term.equal a.Atom.args.(1) (Term.Var "X0")
                    || Term.equal a.Atom.args.(1) (Term.Var "X1"))))
             cands);
        (* constant pool produces gender constants *)
        check Alcotest.bool "gender constants offered" true
          (List.exists
             (fun (a : Atom.t) ->
               String.equal a.Atom.rel "gender" && Term.is_const a.Atom.args.(1))
             cands));
    tc "FOIL respects clauselength" (fun () ->
        let p = problem () in
        let def = Foil.learn ~params:{ Foil.default_params with clauselength = 2 } p in
        check Alcotest.bool "clauses short" true
          (List.for_all (fun c -> Clause.length c <= 2) def.Clause.clauses));
  ]

let progol_suite =
  [
    learns_well "Aleph-Progol learns grandparent" (fun p ->
        Progol.learn ~params:(Progol.aleph_progol ~clauselength:4) p);
    learns_well "Aleph-FOIL (greedy) learns grandparent" (fun p ->
        Progol.learn ~params:(Progol.aleph_foil ~clauselength:4) p);
    tc "clauselength bounds learned clause length" (fun () ->
        let p = problem () in
        let def = Progol.learn ~params:(Progol.aleph_progol ~clauselength:3) p in
        check Alcotest.bool "bounded" true
          (List.for_all (fun c -> Clause.length c <= 3) def.Clause.clauses));
    tc "learned clauses come from the bottom clause" (fun () ->
        let p = problem () in
        let def = Progol.learn ~params:(Progol.aleph_progol ~clauselength:4) p in
        (* every learned clause only uses schema relations *)
        let rels = List.map (fun (r : Schema.relation) -> r.Schema.rname)
            (Instance.schema p.Problem.instance).Schema.relations in
        check Alcotest.bool "known relations" true
          (List.for_all
             (fun c ->
               List.for_all (fun (a : Atom.t) -> List.mem a.Atom.rel rels) c.Clause.body)
             def.Clause.clauses));
  ]

let golem_suite =
  [
    learns_well "Golem learns grandparent" (fun p -> Golem.learn p);
    tc "rlgg of two saturations generalizes both (Thm 6.4 core)" (fun () ->
        let p = problem () in
        let s0 = p.Problem.pos_cov.Coverage.bottoms.(0) in
        let s1 = p.Problem.pos_cov.Coverage.bottoms.(1) in
        match Lgg.rlgg s0 s1 with
        | None -> Alcotest.fail "compatible saturations"
        | Some g ->
            check Alcotest.bool "subsumes s0" true (Subsume.subsumes g s0);
            check Alcotest.bool "subsumes s1" true (Subsume.subsumes g s1));
  ]

let progolem_suite =
  [
    learns_well "ProGolem learns grandparent" (fun p -> Progolem.learn p);
    tc "require_safe yields only safe clauses" (fun () ->
        let p = problem () in
        let def =
          Progolem.learn ~params:{ Progolem.default_params with require_safe = true } p
        in
        check Alcotest.bool "all safe" true
          (List.for_all Clause.is_safe def.Clause.clauses));
    tc "seed retry skips dead seeds" (fun () ->
        let p = problem () in
        (* force a dead first seed by masking: learn_clause_generic is
           exercised indirectly; with all seeds alive learning works *)
        let uncovered = Array.make (Coverage.length p.Problem.pos_cov) true in
        let bottom e =
          Bottom.bottom_clause ~params:p.Problem.bottom_params p.Problem.instance e
        in
        match
          Progolem.learn_clause_generic ~seed_tries:3 ~bottom ~armg_repair:Fun.id
            ~reduce:Fun.id Progolem.default_params p uncovered
        with
        | Some (c, _) -> check Alcotest.bool "found" true (c.Clause.body <> [])
        | None -> Alcotest.fail "expected a clause");
  ]

(* ---------------- unified Learner API ----------------------------- *)

let registry_suite =
  [
    tc "all five learners are registered (eight names)" (fun () ->
        List.iter
          (fun n ->
            let module L = (val Learner.find n) in
            check Alcotest.string (n ^ " resolves to itself") n L.name)
          [
            "foil"; "aleph-foil"; "aleph-progol"; "golem"; "progolem";
            "castor"; "castor-safe"; "castor-subset";
          ]);
    tc "find is case-insensitive, Unknown_learner otherwise" (fun () ->
        let module L = (val Learner.find "FOIL") in
        check Alcotest.string "case folded" "foil" L.name;
        check Alcotest.bool "unknown is None" true
          (Learner.find_opt "no-such-learner" = None);
        match Learner.find "no-such-learner" with
        | exception Learner.Unknown_learner "no-such-learner" -> ()
        | _ -> Alcotest.fail "expected Unknown_learner");
    tc "names lists every registration" (fun () ->
        let ns = Learner.names () in
        check Alcotest.bool "sorted" true (List.sort compare ns = ns);
        List.iter
          (fun n -> check Alcotest.bool n true (List.mem n ns))
          [ "foil"; "golem"; "progolem"; "castor" ]);
    tc "unified FOIL run equals the direct entry point" (fun () ->
        let p = problem () in
        let r = Learner.learn ~name:"foil" p in
        let direct = Foil.learn ~params:(Foil.params_of_config Learner.default_config) p in
        check Alcotest.string "same learner" "foil" r.Learner.Report.learner;
        check Alcotest.bool "nonnegative time" true (r.Learner.Report.seconds >= 0.);
        check
          Alcotest.(list string)
          "same definition"
          (List.map Clause.to_string direct.Clause.clauses)
          (List.map Clause.to_string r.Learner.Report.definition.Clause.clauses));
    tc "config flows through the shared record" (fun () ->
        let p = problem () in
        let r =
          Learner.learn ~name:"foil"
            ~config:{ Learner.default_config with Learner.max_clauses = 1 }
            p
        in
        check Alcotest.bool "at most one clause" true
          (List.length r.Learner.Report.definition.Clause.clauses <= 1));
    tc "learn ?gate re-runs the analysis gate" (fun () ->
        let p = problem () in
        (* the family problem is clean, so even `Strict passes *)
        let r = Learner.learn ~name:"golem" ~gate:`Strict p in
        check Alcotest.bool "learned" true
          (r.Learner.Report.definition.Clause.clauses <> []));
    tc "registry entry agrees with the direct entry point" (fun () ->
        let p = problem () in
        let def = (Learner.learn ~name:"foil" p).Learner.Report.definition in
        let def' = Foil.learn p in
        check
          Alcotest.(list string)
          "registry == direct"
          (List.map Clause.to_string def'.Clause.clauses)
          (List.map Clause.to_string def.Clause.clauses));
    tc "config.backend re-bases the run without changing the result"
      (fun () ->
        let p = problem () in
        let on backend =
          let r =
            Learner.learn ~name:"foil"
              ~config:{ Learner.default_config with Learner.backend }
              p
          in
          List.map Clause.to_string r.Learner.Report.definition.Clause.clauses
        in
        let base = on None in
        check Alcotest.(list string) "flat instance" base
          (on (Some Castor_relational.Backend.Flat));
        check Alcotest.(list string) "store:2" base
          (on (Some (Castor_relational.Backend.Sharded 2))));
    tc "Castor learns the same UW-CSE clauses on every backend" (fun () ->
        let module Experiment = Castor_eval.Experiment in
        let ds = Castor_datasets.Uwcse.generate () in
        List.iter
          (fun (vname, _) ->
            let learn backend =
              let prep = Experiment.prepare ?backend ds vname in
              let def = Experiment.train_full prep (Castor_eval.Algos.castor ()) in
              List.map Clause.to_string def.Clause.clauses
            in
            let base = learn None in
            check Alcotest.bool (vname ^ ": learned something") true (base <> []);
            check Alcotest.(list string) (vname ^ ": flat") base
              (learn (Some Backend.Flat));
            check Alcotest.(list string) (vname ^ ": store:4") base
              (learn (Some (Backend.Sharded 4))))
          ds.Castor_datasets.Dataset.variants);
  ]

let suite =
  problem_suite @ foil_suite @ progol_suite @ golem_suite @ progolem_suite
  @ registry_suite
