(* Tests for the ILP substrate: examples, bottom clauses, coverage,
   parallel map, scoring, the covering loop, armg, negative
   reduction. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Helpers

let v s = Term.Var s

let k s = Term.Const (Value.str s)

(* family fixture *)
let family = Castor_datasets.Family.generate ()

let family_inst = family.Castor_datasets.Dataset.instance

let first_pos = family.Castor_datasets.Dataset.examples.Examples.pos.(0)

(* ------------------------------ examples --------------------------- *)

let examples_suite =
  [
    tc "folds partition the data" (fun () ->
        let ex = family.Castor_datasets.Dataset.examples in
        let folds = Examples.folds ~seed:1 5 ex in
        check Alcotest.int "five folds" 5 (List.length folds);
        List.iter
          (fun (train, test) ->
            check Alcotest.int "pos partition" (Examples.n_pos ex)
              (Examples.n_pos train + Examples.n_pos test);
            check Alcotest.int "neg partition" (Examples.n_neg ex)
              (Examples.n_neg train + Examples.n_neg test))
          folds);
    tc "subsample bounds sizes" (fun () ->
        let ex = family.Castor_datasets.Dataset.examples in
        let s = Examples.subsample ~seed:2 ~pos:5 ~neg:7 ex in
        check Alcotest.int "pos" 5 (Examples.n_pos s);
        check Alcotest.int "neg" 7 (Examples.n_neg s));
    qt ~count:20 "shuffle permutes" QCheck2.Gen.(int_range 1 50) (fun n ->
        let rng = Random.State.make [| n |] in
        let arr = Array.init n (fun i -> i) in
        let sh = Examples.shuffle rng arr in
        List.sort compare (Array.to_list sh) = List.init n Fun.id);
    tc "closed-world negatives avoid the positives" (fun () ->
        let ds = family in
        let neg =
          Examples.closed_world_negatives ~seed:5 family_inst
            ds.Castor_datasets.Dataset.target
            ds.Castor_datasets.Dataset.examples.Examples.pos
        in
        check Alcotest.bool "nonempty" true (Array.length neg > 0);
        Array.iter
          (fun n ->
            check Alcotest.bool "not positive" false
              (Array.exists (Atom.equal n)
                 ds.Castor_datasets.Dataset.examples.Examples.pos);
            check Alcotest.string "target relation"
              ds.Castor_datasets.Dataset.target.Castor_relational.Schema.rname
              n.Atom.rel)
          neg);
    tc "closed-world negatives respect the ratio" (fun () ->
        let ds = family in
        let pos = ds.Castor_datasets.Dataset.examples.Examples.pos in
        let neg =
          Examples.closed_world_negatives ~seed:5 ~ratio:3 family_inst
            ds.Castor_datasets.Dataset.target pos
        in
        check Alcotest.int "3x" (3 * Array.length pos) (Array.length neg));
  ]

(* ---------------------------- bottom clause ------------------------- *)

let bottom_suite =
  [
    tc "saturation head is the example" (fun () ->
        let sat = Bottom.saturation ~params:Bottom.default_params family_inst first_pos in
        check Alcotest.bool "head" true (Atom.equal sat.Clause.head first_pos));
    tc "saturation body is ground" (fun () ->
        let sat = Bottom.saturation ~params:Bottom.default_params family_inst first_pos in
        check Alcotest.bool "ground" true (List.for_all Atom.is_ground sat.Clause.body));
    tc "depth 0 gives empty body" (fun () ->
        let sat =
          Bottom.saturation
            ~params:{ Bottom.default_params with depth = 0 }
            family_inst first_pos
        in
        check Alcotest.int "empty" 0 (Clause.length sat));
    tc "deeper saturations contain shallower ones" (fun () ->
        let p d = { Bottom.default_params with depth = d } in
        let s1 = Bottom.saturation ~params:(p 1) family_inst first_pos in
        let s2 = Bottom.saturation ~params:(p 2) family_inst first_pos in
        check Alcotest.bool "monotone" true
          (List.for_all
             (fun a -> List.exists (Atom.equal a) s2.Clause.body)
             s1.Clause.body));
    tc "max_terms budget caps constants" (fun () ->
        let growths0 = Castor_obs.Obs.Counter.value Bottom.c_budget_growths in
        let sat =
          Bottom.saturation
            ~params:{ Bottom.default_params with max_terms = Some 8; depth = 5 }
            family_inst first_pos
        in
        let consts =
          List.fold_left
            (fun acc a -> List.fold_left (fun acc c -> Value.Set.add c acc) acc (Atom.constants a))
            Value.Set.empty sat.Clause.body
        in
        (* a truncated saturation retries with a doubled budget (at
           most Bottom.max_budget_growths times), and the budget is
           checked between iterations — so the bound is the maximally
           grown budget plus a modest final-iteration overshoot *)
        check Alcotest.bool "budget grew on truncation" true
          (Castor_obs.Obs.Counter.value Bottom.c_budget_growths > growths0);
        check Alcotest.bool "bounded" true (Value.Set.cardinal consts < 128));
    tc "a grown budget reaches the untruncated saturation" (fun () ->
        (* family saturates at ~103 constants from this example; a
           budget of 20 is cut, but two doublings reach 80 and the
           pass completes — bit-for-bit the unbounded result, which is
           what makes Lemma 7.5 unconditional in practice *)
        let bounded =
          Bottom.saturation
            ~params:{ Bottom.default_params with max_terms = Some 20; depth = 5 }
            family_inst first_pos
        in
        let unbounded =
          Bottom.saturation
            ~params:{ Bottom.default_params with max_terms = None; depth = 5 }
            family_inst first_pos
        in
        check Alcotest.string "adaptively grown == unbounded"
          (Clause.to_string unbounded)
          (Clause.to_string bounded));
    tc "no_expand_domains keeps attribute constants off the frontier" (fun () ->
        let with_filter =
          Bottom.saturation
            ~params:
              { Bottom.default_params with no_expand_domains = [ "gender"; "age" ] }
            family_inst first_pos
        in
        let without =
          Bottom.saturation ~params:Bottom.default_params family_inst first_pos
        in
        check Alcotest.bool "filtered is smaller" true
          (Clause.length with_filter <= Clause.length without));
    tc "variabilize keeps const_domains constants (Example 6.5)" (fun () ->
        let params =
          { Bottom.default_params with const_domains = [ "gender"; "age" ] }
        in
        let bc = Bottom.bottom_clause ~params family_inst first_pos in
        (* gender literals keep their constant second argument *)
        check Alcotest.bool "has gender constant" true
          (List.exists
             (fun (a : Atom.t) ->
               String.equal a.Atom.rel "gender" && Term.is_const a.Atom.args.(1))
             bc.Clause.body));
    tc "bottom clause subsumes its own saturation" (fun () ->
        let params = Bottom.default_params in
        let sat = Bottom.saturation ~params family_inst first_pos in
        let bc = Bottom.bottom_clause ~params family_inst first_pos in
        check Alcotest.bool "covers seed" true (Subsume.subsumes bc sat));
    tc "expand hook literals are admitted" (fun () ->
        (* chase hook that injects a marker tuple for every parent tuple *)
        let expand rel _tu =
          if String.equal rel "parent" then
            [ ("gender", Tuple.of_list [ Value.str "marker"; Value.str "male" ]) ]
          else []
        in
        let sat =
          Bottom.saturation ~expand ~params:Bottom.default_params family_inst first_pos
        in
        check Alcotest.bool "marker admitted" true
          (List.exists
             (fun (a : Atom.t) ->
               String.equal a.Atom.rel "gender"
               && Term.equal a.Atom.args.(0) (k "marker"))
             sat.Clause.body));
  ]

(* ------------------------------ coverage ---------------------------- *)

let coverage_fixture () =
  let ex = family.Castor_datasets.Dataset.examples in
  Coverage.build ~params:Bottom.default_params family_inst ex.Examples.pos

let grandparent_clause =
  Clause.make
    (Atom.make "grandparent" [ v "x"; v "z" ])
    [ Atom.make "parent" [ v "x"; v "y" ]; Atom.make "parent" [ v "y"; v "z" ] ]

let coverage_suite =
  [
    tc "golden clause covers every positive" (fun () ->
        let cov = coverage_fixture () in
        check Alcotest.int "all covered" (Coverage.length cov)
          (Coverage.covered_count cov grandparent_clause));
    tc "golden clause covers no negative" (fun () ->
        let ex = family.Castor_datasets.Dataset.examples in
        let ncov = Coverage.build ~params:Bottom.default_params family_inst ex.Examples.neg in
        check Alcotest.int "none covered" 0 (Coverage.covered_count ncov grandparent_clause));
    tc "cache returns stable vectors" (fun () ->
        let cov = coverage_fixture () in
        let v1 = Coverage.vector cov grandparent_clause in
        let v2 = Coverage.vector cov grandparent_clause in
        check Alcotest.bool "equal" true (v1 = v2));
    tc "within restricts testing" (fun () ->
        let cov = coverage_fixture () in
        Coverage.set_cache cov false;
        let mask = Array.make (Coverage.length cov) false in
        let v = Coverage.vector ~within:mask cov grandparent_clause in
        check Alcotest.int "nothing" 0 (Coverage.count v));
    tc "assume short-circuits to true" (fun () ->
        let cov = coverage_fixture () in
        Coverage.set_cache cov false;
        let known = Array.make (Coverage.length cov) true in
        let bogus = Clause.make (Atom.make "grandparent" [ v "x"; v "y" ])
            [ Atom.make "parent" [ v "x"; v "x" ] ] in
        let vec = Coverage.vector ~assume:known cov bogus in
        check Alcotest.int "all assumed" (Coverage.length cov) (Coverage.count vec));
    tc "sub shares saturations" (fun () ->
        let cov = coverage_fixture () in
        let sub = Coverage.sub cov [| 0; 2; 4 |] in
        check Alcotest.int "three" 3 (Coverage.length sub);
        check Alcotest.bool "same bottoms" true
          (sub.Coverage.bottoms.(1) == cov.Coverage.bottoms.(2)));
    tc "masked vectors agree with the unmasked vector, cache on and off"
      (fun () ->
        (* gender restriction gives a clause with mixed coverage *)
        let grandfather =
          Clause.make
            (Atom.make "grandparent" [ v "x"; v "z" ])
            (grandparent_clause.Clause.body
            @ [ Atom.make "gender" [ v "x"; k "male" ] ])
        in
        let cov = coverage_fixture () in
        let n = Coverage.length cov in
        List.iter
          (fun cache_on ->
            Coverage.set_cache cov cache_on;
            Coverage.clear_cache cov;
            let full = Coverage.vector cov grandfather in
            let covered = Coverage.count full in
            check Alcotest.bool "coverage is mixed" true
              (covered > 0 && covered < n);
            let mask = Array.init n (fun i -> i mod 3 <> 1) in
            check
              Alcotest.(array bool)
              "within = unmasked restricted to mask"
              (Array.mapi (fun i b -> b && mask.(i)) full)
              (Coverage.vector ~within:mask cov grandfather);
            (* assuming a subset of the truly covered examples must not
               change the answer, only skip their tests *)
            let known = Array.mapi (fun i b -> b && i mod 2 = 0) full in
            check
              Alcotest.(array bool)
              "assume subset gives the exact vector" full
              (Coverage.vector ~assume:known cov grandfather))
          [ true; false ]);
    tc "covers answers from a cached full vector" (fun () ->
        (* regression: covers used to bypass the memo cache and re-run
           a subsumption test per call *)
        Stats.reset ();
        let cov = coverage_fixture () in
        let full = Coverage.vector cov grandparent_clause in
        let s0 = Stats.snapshot () in
        for i = 0 to Coverage.length cov - 1 do
          check Alcotest.bool
            (Printf.sprintf "covers %d agrees with the vector" i)
            full.(i)
            (Coverage.covers cov grandparent_clause i)
        done;
        let d = Stats.diff (Stats.snapshot ()) s0 in
        check Alcotest.int "no new subsumption tests" 0 d.Stats.subsumption_tests;
        check Alcotest.int "every answer was a cache hit" (Coverage.length cov)
          d.Stats.cache_hits);
    tc "α-equivalent clauses share one cache entry only when renamed" (fun () ->
        Stats.reset ();
        let cov = coverage_fixture () in
        let full = Coverage.vector cov grandparent_clause in
        (* same clause up to variable renaming *)
        let renamed =
          Clause.make
            (Atom.make "grandparent" [ v "gp"; v "gc" ])
            [
              Atom.make "parent" [ v "gp"; v "mid" ];
              Atom.make "parent" [ v "mid"; v "gc" ];
            ]
        in
        let s0 = Stats.snapshot () in
        check Alcotest.(array bool) "same vector" full
          (Coverage.vector cov renamed);
        let d = Stats.diff (Stats.snapshot ()) s0 in
        check Alcotest.int "answered by the cache" 1 d.Stats.cache_hits;
        check Alcotest.int "no new subsumption tests" 0 d.Stats.subsumption_tests;
        (* a permuted body is θ-equivalent but keys apart: it misses the
           cache and still gets the same answer *)
        let permuted =
          Clause.make renamed.Clause.head (List.rev renamed.Clause.body)
        in
        let s1 = Stats.snapshot () in
        check Alcotest.(array bool) "permuted: same vector" full
          (Coverage.vector cov permuted);
        let d = Stats.diff (Stats.snapshot ()) s1 in
        check Alcotest.int "permuted: not answered by the cache" 0
          d.Stats.cache_hits);
    tc "memo keeps int, string and variable arguments apart" (fun () ->
        (* p(a,5) holds with the int 5, p(b,"5") with the string "5" *)
        let at = Schema.attribute ~domain:"d" in
        let inst =
          Instance.create (Schema.make [ Schema.relation "p" [ at "x"; at "y" ] ])
        in
        Instance.add inst "p" (Tuple.of_list [ Value.str "a"; Value.int 5 ]);
        Instance.add inst "p" (Tuple.of_list [ Value.str "b"; Value.str "5" ]);
        let examples =
          Array.map
            (fun e -> Atom.of_tuple "t" (Tuple.of_list [ Value.str e ]))
            [| "a"; "b" |]
        in
        let memo = Coverage.build ~params:Bottom.default_params inst examples in
        let fresh = Coverage.build ~params:Bottom.default_params inst examples in
        Coverage.set_cache fresh false;
        (* queried in this order, memo on: each answer must match the
           memo-off one *)
        List.iteri
          (fun i arg ->
            let c =
              Clause.make (Atom.make "t" [ v "X" ]) [ Atom.make "p" [ v "X"; arg ] ]
            in
            check Alcotest.(array bool)
              (Fmt.str "query %d: %s" i (Clause.to_string c))
              (Coverage.vector fresh c) (Coverage.vector memo c))
          [ Term.Const (Value.int 5); k "5"; v "Y"; k "_1" ]);
    tc "subsumption-test counter is exact with 4 forced domains" (fun () ->
        let cov = coverage_fixture () in
        Coverage.set_cache cov false;
        let n = Coverage.length cov in
        let seq = Coverage.vector cov grandparent_clause in
        Coverage.set_domains cov 4;
        Coverage.set_force_parallel cov true;
        for round = 1 to 20 do
          let before = Stats.snapshot () in
          let par = Coverage.vector cov grandparent_clause in
          let d = Stats.diff (Stats.snapshot ()) before in
          check Alcotest.(array bool)
            (Printf.sprintf "round %d: parallel vector = sequential" round)
            seq par;
          check Alcotest.int
            (Printf.sprintf "round %d: exactly one test per example" round)
            n d.Stats.subsumption_tests
        done);
  ]

(* ------------------------------ parallel ---------------------------- *)

let parallel_suite =
  [
    tc "init equals sequential map" (fun () ->
        let f i = (i * 7) mod 13 in
        check Alcotest.(array int) "same" (Array.init 100 f)
          (Parallel.init ~domains:4 100 f));
    tc "tiny arrays run sequentially" (fun () ->
        check Alcotest.(array int) "same" (Array.init 3 Fun.id)
          (Parallel.init ~domains:8 3 Fun.id));
    qt ~count:20 "map equals Array.map" QCheck2.Gen.(list_size (int_bound 40) (int_bound 100))
      (fun l ->
        let arr = Array.of_list l in
        Parallel.map ~domains:3 (fun x -> x * x) arr = Array.map (fun x -> x * x) arr);
    tc "forced init equals Array.init across sizes and domain counts"
      (fun () ->
        let f i = (i * 31) mod 17 in
        List.iter
          (fun n ->
            List.iter
              (fun domains ->
                check Alcotest.(array int)
                  (Printf.sprintf "n=%d domains=%d" n domains)
                  (Array.init n f)
                  (Parallel.init ~force:true ~domains n f))
              [ 1; 2; 4; 8 ])
          [ 0; 1; 7; 8; 1000 ]);
    tc "a raising f propagates and does not poison the pool" (fun () ->
        Alcotest.check_raises "first exception re-raised" (Failure "boom")
          (fun () ->
            ignore
              (Parallel.init ~force:true ~domains:4 100 (fun i ->
                   if i = 50 then failwith "boom" else i)));
        (* the workers survived the failed batch and still compute *)
        check Alcotest.(array int) "pool still works" (Array.init 100 Fun.id)
          (Parallel.init ~force:true ~domains:4 100 Fun.id));
    tc "force overrides the small-array fallback" (fun () ->
        (* regression: ~force:true used to fall back to sequential for
           n < 8, so forced-parallel tests over small arrays never
           exercised worker domains; worker-task submissions are
           observable as ilp.parallel.tasks *)
        let tasks = Parallel.c_tasks in
        let before = Castor_obs.Obs.Counter.value tasks in
        let f i = (i * 5) + 1 in
        check Alcotest.(array int) "small forced init is correct"
          (Array.init 3 f)
          (Parallel.init ~force:true ~domains:4 3 f);
        check Alcotest.bool "worker tasks were submitted" true
          (Castor_obs.Obs.Counter.value tasks > before));
    tc "fatal exceptions propagate and the pool recovers" (fun () ->
        Alcotest.check_raises "Out_of_memory re-raised" Out_of_memory
          (fun () ->
            ignore
              (Parallel.init ~force:true ~domains:4 100 (fun i ->
                   if i = 50 then raise Out_of_memory else i)));
        (* the domain that hit the fatal exception died; the pool
           respawns workers on the next call *)
        check Alcotest.(array int) "pool recovers" (Array.init 100 Fun.id)
          (Parallel.init ~force:true ~domains:4 100 Fun.id));
    tc "worker accounting survives repeated fatal deaths" (fun () ->
        (* regression for the n_workers race flagged by
           par/shared-mutable-state: the caller's unlocked check in
           ensure_workers raced the dying worker's decrement, so a
           fatal batch could leave the pool under- or over-counted.
           With the CAS loop, pools stay correct through repeated
           kill/respawn cycles. *)
        for round = 1 to 5 do
          (try
             ignore
               (Parallel.init ~force:true ~domains:4 64 (fun i ->
                    if i mod 16 = 7 then raise Out_of_memory else i))
           with Out_of_memory -> ());
          check Alcotest.(array int)
            (Printf.sprintf "round %d: pool recovered and is exact" round)
            (Array.init 64 Fun.id)
            (Parallel.init ~force:true ~domains:4 64 Fun.id)
        done);
  ]

(* ------------------------------ scoring ----------------------------- *)

let scoring_suite =
  [
    tc "precision and acceptance thresholds" (fun () ->
        let s = { Scoring.pos_covered = 8; neg_covered = 4 } in
        check (Alcotest.float 1e-9) "precision" (8. /. 12.) (Scoring.precision s);
        check Alcotest.bool "not acceptable at 0.67" false
          (Scoring.acceptable ~min_precision:0.67 ~minpos:2 s);
        check Alcotest.bool "acceptable at 0.5" true
          (Scoring.acceptable ~min_precision:0.5 ~minpos:2 s));
    tc "coverage and compression" (fun () ->
        let s = { Scoring.pos_covered = 10; neg_covered = 3 } in
        check Alcotest.int "coverage" 7 (Scoring.coverage s);
        check Alcotest.int "compression" 5 (Scoring.compression ~len:2 s));
    tc "foil gain positive for purifying literal" (fun () ->
        let before = { Scoring.pos_covered = 10; neg_covered = 10 } in
        let after = { Scoring.pos_covered = 8; neg_covered = 1 } in
        check Alcotest.bool "gain > 0" true (Scoring.foil_gain ~before ~after > 0.));
    tc "foil gain zero when proportions unchanged" (fun () ->
        let before = { Scoring.pos_covered = 8; neg_covered = 8 } in
        let after = { Scoring.pos_covered = 4; neg_covered = 4 } in
        check (Alcotest.float 1e-9) "zero" 0. (Scoring.foil_gain ~before ~after));
  ]

(* --------------------------- covering loop -------------------------- *)

let covering_suite =
  [
    tc "covering loop stops when all positives are covered" (fun () ->
        let calls = ref 0 in
        let learn_clause uncovered =
          incr calls;
          (* one clause covering everything *)
          Some (grandparent_clause, Array.map (fun _ -> true) uncovered)
        in
        let out = Covering.run ~target:"t" ~learn_clause 10 in
        check Alcotest.int "one call" 1 !calls;
        check Alcotest.int "one clause" 1 (List.length out.Covering.definition.Clause.clauses);
        check Alcotest.int "none left" 0 out.Covering.uncovered_pos);
    tc "covering loop stops on no progress" (fun () ->
        let learn_clause uncovered =
          (* claims a clause but covers nothing new *)
          Some (grandparent_clause, Array.map (fun _ -> false) uncovered)
        in
        let out = Covering.run ~target:"t" ~learn_clause 5 in
        check Alcotest.int "no clause kept" 0
          (List.length out.Covering.definition.Clause.clauses));
    tc "covering loop respects max_clauses" (fun () ->
        let i = ref 0 in
        let learn_clause uncovered =
          incr i;
          (* each clause covers exactly one new positive *)
          let vec = Array.make (Array.length uncovered) false in
          if !i - 1 < Array.length vec then vec.(!i - 1) <- true;
          Some (grandparent_clause, vec)
        in
        let out = Covering.run ~target:"t" ~learn_clause ~max_clauses:3 10 in
        check Alcotest.int "capped" 3 (List.length out.Covering.definition.Clause.clauses);
        check Alcotest.int "seven left" 7 out.Covering.uncovered_pos);
  ]

(* ------------------------------- armg ------------------------------- *)

let armg_suite =
  [
    tc "armg output covers the target example" (fun () ->
        let cov = coverage_fixture () in
        let bc =
          Bottom.bottom_clause ~params:Bottom.default_params family_inst first_pos
        in
        match Armg.generalize cov bc 1 with
        | None -> Alcotest.fail "expected a generalization"
        | Some g -> check Alcotest.bool "covers e1" true (Coverage.covers cov g 1));
    tc "armg only removes literals" (fun () ->
        let cov = coverage_fixture () in
        let bc =
          Bottom.bottom_clause ~params:Bottom.default_params family_inst first_pos
        in
        match Armg.generalize cov bc 2 with
        | None -> Alcotest.fail "expected a generalization"
        | Some g ->
            check Alcotest.bool "subset of bottom" true
              (List.for_all
                 (fun l -> List.exists (fun l' -> l == l' || Atom.equal l l') bc.Clause.body)
                 g.Clause.body));
    tc "armg keeps coverage of already-covered example" (fun () ->
        let cov = coverage_fixture () in
        let bc =
          Bottom.bottom_clause ~params:Bottom.default_params family_inst first_pos
        in
        match Armg.generalize cov bc 3 with
        | None -> Alcotest.fail "expected"
        | Some g -> check Alcotest.bool "still covers seed" true (Coverage.covers cov g 0));
  ]

(* -------------------------- negative reduction ---------------------- *)

let negreduce_suite =
  [
    tc "plain reduction drops junk without increasing negatives" (fun () ->
        let ex = family.Castor_datasets.Dataset.examples in
        let ncov = Coverage.build ~params:Bottom.default_params family_inst ex.Examples.neg in
        let junky =
          {
            grandparent_clause with
            Clause.body =
              grandparent_clause.Clause.body
              @ [ Atom.make "gender" [ v "x"; v "g" ] ];
          }
        in
        let baseline = Coverage.covered_count ncov junky in
        let red = Negreduce.reduce ncov junky in
        check Alcotest.bool "shorter or equal" true (Clause.length red <= Clause.length junky);
        check Alcotest.bool "negatives not increased" true
          (Coverage.covered_count ncov red <= baseline));
    tc "safe reduction keeps head variables bound" (fun () ->
        let ex = family.Castor_datasets.Dataset.examples in
        let ncov = Coverage.build ~params:Bottom.default_params family_inst ex.Examples.neg in
        let red = Negreduce.reduce ~require_safe:true ncov grandparent_clause in
        check Alcotest.bool "safe" true (Clause.is_safe red));
  ]

let stats_suite =
  [
    tc "stats counters track coverage work" (fun () ->
        Stats.reset ();
        let before = Stats.snapshot () in
        let cov = coverage_fixture () in
        Coverage.set_cache cov false;
        ignore (Coverage.vector cov grandparent_clause);
        ignore (Coverage.vector cov grandparent_clause);
        let d = Stats.diff (Stats.snapshot ()) before in
        check Alcotest.int "two vectors" 2 d.Stats.coverage_vectors;
        check Alcotest.int "tests = 2n" (2 * Coverage.length cov) d.Stats.subsumption_tests;
        check Alcotest.bool "saturations counted" true (d.Stats.saturations > 0));
    tc "cache hits are counted" (fun () ->
        Stats.reset ();
        let cov = coverage_fixture () in
        ignore (Coverage.vector cov grandparent_clause);
        ignore (Coverage.vector cov grandparent_clause);
        check Alcotest.int "one hit" 1 (Stats.snapshot ()).Stats.cache_hits);
  ]

(* Saturation dedups admitted tuples on (relation, tuple): r(e,5) and
   r(e,"5"), or s(e,"a, b","c") and s(e,"a","b, c"), print alike but
   are four distinct facts. *)
let print_alike_suite =
  [
    tc "saturation keeps distinct tuples that print alike" (fun () ->
        let at = Schema.attribute ~domain:"d" in
        let schema =
          Schema.make
            [
              Schema.relation "r" [ at "x"; at "y" ];
              Schema.relation "s" [ at "x"; at "y"; at "z" ];
            ]
        in
        let inst = Instance.create schema in
        let e = Value.str "e" in
        let facts =
          [
            ("r", [ e; Value.int 5 ]);
            ("r", [ e; Value.str "5" ]);
            ("s", [ e; Value.str "a, b"; Value.str "c" ]);
            ("s", [ e; Value.str "a"; Value.str "b, c" ]);
          ]
        in
        List.iter (fun (rel, vs) -> Instance.add inst rel (Tuple.of_list vs)) facts;
        let sat =
          Bottom.saturation ~params:Bottom.default_params inst
            (Atom.of_tuple "t" (Tuple.of_list [ e ]))
        in
        List.iteri
          (fun i (rel, vs) ->
            let lit = Atom.of_tuple rel (Tuple.of_list vs) in
            check Alcotest.bool
              (Fmt.str "fact %d, %s, present" i (Atom.to_string lit))
              true
              (List.exists (Atom.equal lit) sat.Clause.body))
          facts;
        check Alcotest.int "no other literal" 4 (List.length sat.Clause.body));
  ]

let suite =
  examples_suite @ bottom_suite @ coverage_suite @ parallel_suite
  @ scoring_suite @ covering_suite @ armg_suite @ negreduce_suite @ stats_suite
  @ print_alike_suite
