(* Schema-variant fuzzing harness tests.

   The heavyweight cases drive the whole pipeline zero-config: strip
   the hand-written bias from a benchmark dataset, re-induce it
   (AutoMode-style), generate a seeded family of schema variants, and
   assert Castor's learned definitions are data-equivalent across all
   of them — the paper's headline claim checked on machine-generated
   worlds instead of the curated variant lists. FOIL's divergence and
   the shrinking of its failure to a minimal (variant, clause)
   counterexample are pinned as well.

   All randomness derives from Helpers.test_seed (CASTOR_TEST_SEED),
   so a failing generated variant reproduces locally. *)

open Castor_relational
open Castor_datasets
open Castor_fuzz
open Helpers

let seed = test_seed

(* -------- zero-config pipeline on the three large datasets -------- *)

let zero_config name generate =
  tc
    (Printf.sprintf
       "%s: zero-config fuzz — bias induced, >= 8 variants, Castor \
        data-equivalent"
       name)
    (fun () ->
      let config =
        {
          Fuzz.default_config with
          Fuzz.seed;
          budget = 8;
          learners = [ "castor" ];
          shrink = false;
        }
      in
      let report = Fuzz.run ~config (generate ()) in
      (match report.Fuzz.rp_bias with
      | None -> Alcotest.fail "no bias induced"
      | Some b ->
          check Alcotest.bool "some mode inferred" true (b.Bias.modes <> []);
          check Alcotest.bool "join domains found" true (b.Bias.join_domains <> []));
      check Alcotest.bool "at least 8 generated variants" true
        (List.length report.Fuzz.rp_variants >= 8);
      check Alcotest.bool "Castor data-equivalent on every variant" true
        (Fuzz.independent report ~learner:"castor");
      check Alcotest.bool "no shrink needed" true
        (report.Fuzz.rp_counterexamples = []))

let pipeline_suite =
  [
    zero_config "uwcse" (fun () -> Uwcse.generate ());
    zero_config "imdb" (fun () -> Imdb.generate ());
    zero_config "hiv" (fun () -> Hiv.generate ());
  ]

(* ------------------- divergence and shrinking --------------------- *)

let divergence_suite =
  [
    tc
      "family: FOIL diverges on a generated variant and shrinks to a minimal \
       counterexample"
      (fun () ->
        let ds = Family.generate () in
        let config =
          {
            Fuzz.default_config with
            Fuzz.seed;
            budget = 4;
            learners = [ "castor"; "foil" ];
          }
        in
        let report = Fuzz.run ~config ds in
        check Alcotest.bool "Castor independent" true
          (Fuzz.independent report ~learner:"castor");
        check Alcotest.bool "FOIL diverges" false
          (Fuzz.independent report ~learner:"foil");
        match report.Fuzz.rp_counterexamples with
        | [] -> Alcotest.fail "divergence produced no counterexample"
        | cx :: _ ->
            check Alcotest.string "counterexample names the diverger" "foil"
              cx.Shrink.cx_learner;
            check Alcotest.int "reproducing seed recorded" seed cx.Shrink.cx_seed;
            check Alcotest.bool "shrink steps counted" true (cx.Shrink.cx_steps > 0);
            check Alcotest.bool "non-empty minimal transformation" true
              (cx.Shrink.cx_ops <> []);
            (* the minimal transformation must itself be a valid variant *)
            let raw, _ = Bias.induce (Dataset.strip_bias ds) in
            (match Vargen.validate raw cx.Shrink.cx_ops with
            | Ok _ -> ()
            | Error r ->
                Alcotest.fail
                  ("shrunk ops invalid: " ^ Vargen.rejection_to_string r));
            (* the JSON report round-trips the essentials *)
            let doc = Fuzz.report_to_json report in
            check Alcotest.bool "report carries the seed" true
              (contains ~sub:(Printf.sprintf "\"seed\":%d" seed) doc);
            check Alcotest.bool "report carries the counterexample" true
              (contains ~sub:"\"counterexamples\":[{" doc));
  ]

(* ------------- generator: determinism and consistency ------------- *)

let generator_suite =
  [
    tc "generation is deterministic in the seed and valid under any seed"
      (fun () ->
        let ds, _ = Bias.induce (Dataset.strip_bias (Uwcse.generate ())) in
        let a = Vargen.generate ~seed ~budget:6 ds in
        let b = Vargen.generate ~seed ~budget:6 ds in
        check Alcotest.bool "same seed, same family" true (a = b);
        let c = Vargen.generate ~seed:(seed + 1) ~budget:6 ds in
        check Alcotest.bool "other seed still yields variants" true (c <> []);
        List.iter
          (fun (name, ops) ->
            match Vargen.validate ds ops with
            | Ok _ -> ()
            | Error r ->
                Alcotest.fail (name ^ " invalid: " ^ Vargen.rejection_to_string r))
          (a @ c));
    tc "generated variants are pairwise distinct by schema signature" (fun () ->
        let ds, _ = Bias.induce (Dataset.strip_bias (Hiv.generate ())) in
        let fam = Vargen.generate ~seed ~budget:8 ds in
        let sigs =
          List.map
            (fun (_, ops) ->
              Vargen.schema_signature
                (Transform.apply_schema ds.Dataset.schema ops))
            fam
        in
        check Alcotest.int "no duplicate signatures"
          (List.length sigs)
          (List.length (List.sort_uniq compare sigs));
        check Alcotest.bool "base signature not regenerated" true
          (not
             (List.mem (Vargen.schema_signature ds.Dataset.schema) sigs)));
    tc "schema signatures are name-insensitive but structure-preserving"
      (fun () ->
        let attr = Schema.attribute in
        let s1 =
          Schema.make
            [
              Schema.relation "advise"
                [ attr ~domain:"person" "prof"; attr ~domain:"person" "stud" ];
              Schema.relation "teach"
                [ attr ~domain:"person" "prof"; attr ~domain:"course" "c" ];
            ]
        in
        (* same structure, relations and attributes renamed; the shared
           attribute (prof ↦ p) stays shared so joins are preserved *)
        let s2 =
          Schema.make
            [
              Schema.relation "t2"
                [ attr ~domain:"person" "p"; attr ~domain:"course" "k" ];
              Schema.relation "r9"
                [ attr ~domain:"person" "p"; attr ~domain:"person" "s" ];
            ]
        in
        check Alcotest.string "renaming preserves the signature"
          (Vargen.schema_signature s1)
          (Vargen.schema_signature s2);
        (* structurally different: no renaming maps a person-course
           bridge onto a course-course relation — must NOT collapse *)
        let s3 =
          Schema.make
            [
              Schema.relation "advise"
                [ attr ~domain:"person" "prof"; attr ~domain:"person" "stud" ];
              Schema.relation "teach"
                [ attr ~domain:"course" "c1"; attr ~domain:"course" "c2" ];
            ]
        in
        check Alcotest.bool "structure still distinguishes" true
          (Vargen.schema_signature s1 <> Vargen.schema_signature s3));
    tc "depth-3 generation prunes duplicate chains before validation"
      (fun () ->
        let ds, _ = Bias.induce (Dataset.strip_bias (Family.generate ())) in
        let before = Castor_obs.Obs.Counter.value Vargen.c_dup_pruned in
        let fam = Vargen.generate ~seed ~budget:6 ~max_depth:3 ds in
        let pruned = Castor_obs.Obs.Counter.value Vargen.c_dup_pruned - before in
        check Alcotest.bool "variants produced" true (fam <> []);
        check Alcotest.bool "duplicate chains pruned early" true (pruned > 0);
        let sigs =
          List.map
            (fun (_, ops) ->
              Vargen.schema_signature
                (Transform.apply_schema ds.Dataset.schema ops))
            fam
        in
        check Alcotest.int "accepted variants stay pairwise distinct"
          (List.length sigs)
          (List.length (List.sort_uniq compare sigs)));
  ]

(* every hand-coded variant of the benchmark datasets lies in the
   generator's fragment: its transformation is replayed op by op, and
   at each step some candidate op produces the same schema signature *)
let consistency_suite =
  List.map
    (fun (name, gen) ->
      tc (name ^ ": every hand-coded variant is reproducible by the generator")
        (fun () ->
          let ds : Dataset.t = gen () in
          List.iter
            (fun (vname, tr) ->
              if tr <> [] then
                check Alcotest.bool (vname ^ " in fragment") true
                  (Vargen.reproduces ds tr))
            ds.Dataset.variants))
    [
      ("family", fun () -> Family.generate ());
      ("uwcse", fun () -> Uwcse.generate ());
      ("imdb", fun () -> Imdb.generate ());
      ("hiv", fun () -> Hiv.generate ());
      ("collaborated", fun () -> Uwcse.collaborated (Uwcse.generate ()));
    ]

(* --------------- bias induction: mode agreement ------------------- *)

(* induced modes must agree with (or safely over-approximate) the
   hand-written bias. Over-approximation means the induced bias may
   only RELAX the hand one: every domain the curator kept expandable
   stays expandable, and a hand-filtered domain may escape the filter
   only by promotion to a join domain (an IND position — imdb's
   [country] is the live example). Constants appear exactly at
   frontier-filtered domains, and induced pools draw their values
   from the hand vocabulary. *)
let mode_agreement name gen =
  tc (name ^ ": induced bias safely over-approximates the hand-written bias")
    (fun () ->
      let ds : Dataset.t = gen () in
      let ds', bias = Bias.induce (Dataset.strip_bias ds) in
      (* join-capable: occurs at >= 2 attribute positions, so filtering
         it could actually sever a join path (uwcse's [title] occurs
         once — filtering it is vacuous and induction is free to) *)
      let positions d =
        List.fold_left
          (fun n (r : Schema.relation) ->
            n
            + List.length
                (List.filter
                   (fun (a : Schema.attribute) -> String.equal a.Schema.domain d)
                   r.Schema.attrs))
          0 ds.Dataset.schema.Schema.relations
      in
      List.iter
        (fun d ->
          if (not (List.mem d ds.Dataset.no_expand_domains)) && positions d >= 2
          then
            check Alcotest.bool
              ("hand-expandable domain " ^ d ^ " stays expandable") false
              (List.mem d ds'.Dataset.no_expand_domains))
        (Castor_analysis.Modes.all_domains ds.Dataset.schema);
      List.iter
        (fun d ->
          check Alcotest.bool
            ("hand-filtered domain " ^ d ^ " is filtered or a join domain")
            true
            (List.mem d ds'.Dataset.no_expand_domains
            || List.mem d bias.Bias.join_domains))
        ds.Dataset.no_expand_domains;
      List.iter
        (fun (m : Castor_analysis.Modes.t) ->
          List.iter
            (fun (a : Castor_analysis.Modes.arg_mode) ->
              let io = a.Castor_analysis.Modes.io in
              if List.mem a.Castor_analysis.Modes.domain bias.Bias.no_expand_domains
              then
                check Alcotest.bool
                  (m.Castor_analysis.Modes.rel ^ "." ^ a.Castor_analysis.Modes.attr
                 ^ " is constant")
                  true
                  (io = Castor_analysis.Modes.Constant)
              else
                check Alcotest.bool
                  (m.Castor_analysis.Modes.rel ^ "." ^ a.Castor_analysis.Modes.attr
                 ^ " is not constant")
                  true
                  (io <> Castor_analysis.Modes.Constant))
            m.Castor_analysis.Modes.args)
        bias.Bias.modes;
      (* hand-written constant pools are recovered; the induced values
         are the ones present in the data, a subset of the hand
         vocabulary (the curator lists values the generator may not
         have sampled) *)
      List.iter
        (fun (dom, vals) ->
          if not (List.mem dom bias.Bias.join_domains) then
            match List.assoc_opt dom ds'.Dataset.const_pool with
            | None -> Alcotest.fail ("hand pool for " ^ dom ^ " not recovered")
            | Some vals' ->
                let strs l = List.map Value.to_string l in
                check Alcotest.bool (dom ^ " induced pool non-empty") true
                  (vals' <> []);
                check Alcotest.bool (dom ^ " pool within hand vocabulary") true
                  (List.for_all (fun v -> List.mem v (strs vals)) (strs vals')))
        ds.Dataset.const_pool)

let bias_suite =
  [
    mode_agreement "uwcse" (fun () -> Uwcse.generate ());
    mode_agreement "imdb" (fun () -> Imdb.generate ());
    mode_agreement "hiv" (fun () -> Hiv.generate ());
    tc "constraint-less data: dependencies are discovered before inference"
      (fun () ->
        (* abc without its declared FD: discovery must find a -> b, c *)
        let at = Schema.attribute in
        let bare =
          Schema.make
            [
              Schema.relation "r"
                [ at ~domain:"da" "a"; at ~domain:"db" "b"; at ~domain:"dc" "c" ];
            ]
        in
        let inst = Instance.create bare in
        for i = 0 to 11 do
          Instance.add_list inst "r"
            [
              Value.str (Printf.sprintf "a%d" i);
              Value.str (Printf.sprintf "b%d" (i mod 4));
              Value.str (Printf.sprintf "c%d" (i mod 3));
            ]
        done;
        let target = Schema.relation "t" [ at ~domain:"da" "a" ] in
        let ds =
          Dataset.of_instance ~name:"bare" ~target inst
            (Castor_ilp.Examples.make ~pos:[] ~neg:[])
        in
        let _, bias = Bias.induce (Dataset.strip_bias ds) in
        check Alcotest.bool "FDs discovered" true (bias.Bias.discovered_fds > 0));
  ]

let suite =
  pipeline_suite @ divergence_suite @ generator_suite @ consistency_suite
  @ bias_suite
