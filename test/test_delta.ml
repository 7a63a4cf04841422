(* The delta-API battery: the explicit mutation surface of Backend
   (apply / subscribe / generation-from-log) over the instance, the
   incrementally maintained Datalog views, per-store planner
   statistics, and the online coverage path — a
   single-tuple add/remove on a non-target relation must patch the
   coverage structure without a full refresh, and random interleaved
   mutation streams must leave the incremental structure bit-for-bit
   equal to a from-scratch rebuild. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Helpers
module Obs = Castor_obs.Obs
module Examples = Castor_ilp.Examples

let itu a b = Tuple.of_list [ Value.int a; Value.int b ]

(* ---------------- substrate delta units ---------------------------- *)

let p_schema =
  Schema.make
    [
      Schema.relation "p"
        [ Schema.attribute ~domain:"d" "x"; Schema.attribute ~domain:"d" "y" ];
    ]

let substrate_suite =
  [
    tc "instance: apply logs effective deltas and notifies once" (fun () ->
        let inst = Instance.create p_schema in
        let seen = ref [] in
        Backend.subscribe inst (fun ds -> seen := !seen @ [ ds ]);
        check Alcotest.int "fresh store at generation 0" 0 (Backend.generation inst);
        Backend.apply inst [];
        check Alcotest.int "empty batch is a no-op" 0 (Backend.generation inst);
        check Alcotest.int "empty batch not delivered" 0 (List.length !seen);
        (* duplicate add and absent remove are ineffective: dropped from
           the log and from the notified sub-batch *)
        Backend.apply inst
          [
            Delta.add "p" (itu 1 2);
            Delta.add "p" (itu 1 2);
            Delta.remove "p" (itu 3 4);
            Delta.add "p" (itu 5 6);
          ];
        check Alcotest.int "generation = effective deltas" 2
          (Backend.generation inst);
        check Alcotest.int "one notification per batch" 1 (List.length !seen);
        check Alcotest.int "only the effective sub-batch delivered" 2
          (List.length (List.hd !seen));
        (* singleton mutations are [apply] of one delta; effective iff
           the generation moved *)
        let single d =
          let g = Backend.generation inst in
          Backend.apply inst [ d ];
          Backend.generation inst > g
        in
        let add tu = single (Delta.add "p" tu)
        and remove tu = single (Delta.remove "p" tu) in
        let mem tu =
          Backend.find_matching inst "p"
            (List.mapi (fun i v -> (i, v)) (Array.to_list tu))
          <> []
        in
        check Alcotest.bool "add of a new tuple" true (add (itu 7 8));
        check Alcotest.bool "re-add is ineffective" false (add (itu 7 8));
        check Alcotest.bool "remove of a stored tuple" true (remove (itu 1 2));
        check Alcotest.bool "re-remove is ineffective" false (remove (itu 1 2));
        check Alcotest.int "only effective singletons logged" 4
          (Backend.generation inst);
        check Alcotest.int "one notification per effective singleton" 3
          (List.length !seen);
        check Alcotest.bool "store state reflects the log" true
          (mem (itu 5 6) && mem (itu 7 8) && not (mem (itu 1 2))));
  ]

(* ---------------- incrementally maintained Datalog views ------------ *)

let at = Schema.attribute

let edge_schema =
  Schema.make [ Schema.relation "edge" [ at ~domain:"v" "x"; at ~domain:"v" "y" ] ]

let c i = Value.str (Printf.sprintf "c%d" i)

let etu i j = Tuple.of_list [ c i; c j ]

(* path(X,Y) :- edge(X,Y).  path(X,Z) :- edge(X,Y), path(Y,Z). *)
let path_program =
  let va x = Term.Var x in
  [
    Clause.make (Atom.make "path" [ va "X"; va "Y" ])
      [ Atom.make "edge" [ va "X"; va "Y" ] ];
    Clause.make
      (Atom.make "path" [ va "X"; va "Z" ])
      [ Atom.make "edge" [ va "X"; va "Y" ]; Atom.make "path" [ va "Y"; va "Z" ] ];
  ]

let path_set v =
  Datalog.view_facts v "path" |> List.map Atom.to_string |> List.sort compare

let expect_paths pairs =
  List.map (fun (i, j) -> Atom.to_string (Atom.of_tuple "path" (etu i j))) pairs
  |> List.sort compare

let view_suite =
  [
    tc "a watched view absorbs insertions semi-naively" (fun () ->
        let inst = Instance.create edge_schema in
        Instance.add inst "edge" (etu 0 1);
        Instance.add inst "edge" (etu 1 2);
        let v = Datalog.materialize inst path_program in
        check Alcotest.(list string) "initial fixpoint"
          (expect_paths [ (0, 1); (1, 2); (0, 2) ])
          (path_set v);
        Datalog.watch v;
        let rec0 = Obs.Counter.value Datalog.c_view_recomputes in
        Backend.apply inst [ Delta.add "edge" (etu 2 3) ];
        check Alcotest.(list string) "extended with the new edge's closure"
          (expect_paths [ (0, 1); (1, 2); (0, 2); (2, 3); (1, 3); (0, 3) ])
          (path_set v);
        check Alcotest.int "adds-only maintenance never recomputes" rec0
          (Obs.Counter.value Datalog.c_view_recomputes));
    tc "a deletion falls back to a full recomputation" (fun () ->
        let inst = Instance.create edge_schema in
        Instance.add inst "edge" (etu 0 1);
        Instance.add inst "edge" (etu 1 2);
        let v = Datalog.materialize inst path_program in
        Datalog.watch v;
        let rec0 = Obs.Counter.value Datalog.c_view_recomputes in
        Backend.apply inst [ Delta.remove "edge" (etu 0 1); Delta.add "edge" (etu 2 3) ];
        check Alcotest.(list string) "retracted paths are gone"
          (expect_paths [ (1, 2); (2, 3); (1, 3) ])
          (path_set v);
        check Alcotest.int "one recompute counted" (rec0 + 1)
          (Obs.Counter.value Datalog.c_view_recomputes));
  ]

(* ---------------- the pq world (mirrors test_batch) ----------------- *)

let pq_schema =
  Schema.make
    [
      Schema.relation "p" [ at ~domain:"d" "x"; at ~domain:"d" "y" ];
      Schema.relation "q" [ at ~domain:"d" "x"; at ~domain:"d" "y" ];
    ]

let random_problem seed =
  let rng = Random.State.make [| seed |] in
  let inst = Instance.create pq_schema in
  let n_tuples = 10 + Random.State.int rng 20 in
  for _ = 1 to n_tuples do
    let rel = if Random.State.bool rng then "p" else "q" in
    Instance.add inst rel
      (Tuple.of_list
         [ c (Random.State.int rng 8); c (Random.State.int rng 8) ])
  done;
  let examples =
    Array.init 8 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
  in
  (inst, examples)

let candidates inst params (examples : Atom.t array) n =
  let take k l =
    let rec go k = function
      | x :: tl when k > 0 -> x :: go (k - 1) tl
      | _ -> []
    in
    go k l
  in
  List.concat_map
    (fun i ->
      let bc = Bottom.bottom_clause ~params inst examples.(i) in
      List.map
        (fun k -> Clause.make bc.Clause.head (take k bc.Clause.body))
        [ 0; 1; 2; 4; List.length bc.Clause.body ])
    (List.init (min n (Array.length examples)) Fun.id)

let va x = Term.Var x

let p_clause =
  Clause.make (Atom.make "t" [ va "A" ]) [ Atom.make "p" [ va "A"; va "B" ] ]

(* ---------------- planner statistics per store ---------------------- *)

let planner_suite =
  [
    tc "stores at the same generation each plan on their own statistics"
      (fun () ->
        (* the positive and negative example stores share relation
           names and can share a generation; a statistic keyed on
           (relation, column, generation) alone would serve one store's
           distinct count to the other *)
        let pattern =
          {
            Algebra.prel = "p";
            pargs = [| Algebra.Aconst (c 1); Algebra.Avar "B" |];
          }
        in
        (* column 0 is the example id, as in a real example store *)
        let store rows =
          let col = Columnar.create [ ("p", 3) ] in
          List.iter
            (fun (x, y) ->
              ignore (Columnar.add col "p" (Tuple.of_list [ Value.int 0; c x; c y ])))
            rows;
          col
        in
        let spread = store [ (1, 2); (2, 3) ]
        and skewed = store [ (1, 2); (1, 3) ] in
        check Alcotest.int "same generation" (Columnar.generation spread)
          (Columnar.generation skewed);
        check (Alcotest.float 1e-9) "two distinct values" 1.0
          (Planner.scan_estimate spread pattern);
        check (Alcotest.float 1e-9) "one distinct value" 2.0
          (Planner.scan_estimate skewed pattern));
  ]

(* ---------------- online coverage: the acceptance path -------------- *)

let online_suite =
  [
    tc "single-tuple add/remove on a non-target relation never full-refreshes"
      (fun () ->
        let inst = Instance.create pq_schema in
        Instance.add inst "p" (Tuple.of_list [ c 0; c 1 ]);
        let examples =
          [|
            Atom.of_tuple "t" (Tuple.of_list [ c 0 ]);
            Atom.of_tuple "t" (Tuple.of_list [ c 1 ]);
          |]
        in
        let cov =
          Coverage.build ~params:Bottom.default_params inst examples
        in
        check Alcotest.(list bool) "baseline" [ true; false ]
          (Array.to_list (Coverage.vector cov p_clause));
        let full0 = Obs.Counter.value Coverage.c_full_refreshes in
        let applied0 = Obs.Counter.value Coverage.c_delta_applied in
        Instance.add inst "p" (Tuple.of_list [ c 1; c 0 ]);
        check Alcotest.(list bool) "add patched in" [ true; true ]
          (Array.to_list (Coverage.vector cov p_clause));
        ignore (Instance.remove inst "p" (Tuple.of_list [ c 0; c 1 ]));
        check Alcotest.(list bool) "remove patched in" [ false; true ]
          (Array.to_list (Coverage.vector cov p_clause));
        check Alcotest.int "zero full refreshes" full0
          (Obs.Counter.value Coverage.c_full_refreshes);
        check Alcotest.int "both deltas absorbed incrementally"
          (applied0 + 2)
          (Obs.Counter.value Coverage.c_delta_applied));
    tc "memoized vectors are lazily patched, not recomputed" (fun () ->
        let inst = Instance.create pq_schema in
        Instance.add inst "p" (Tuple.of_list [ c 0; c 1 ]);
        Instance.add inst "q" (Tuple.of_list [ c 2; c 2 ]);
        let examples =
          Array.init 3 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
        in
        let cov =
          Coverage.build ~params:Bottom.default_params inst examples
        in
        ignore (Coverage.vector cov p_clause);
        let patches0 = Obs.Counter.value Coverage.c_cache_patches in
        let misses0 = Obs.Counter.value Coverage.c_cache_misses in
        (* this delta only touches example 2's neighborhood (constant
           c2): the cached p-vector must be patched at that position
           alone, not recomputed as a miss *)
        Instance.add inst "p" (Tuple.of_list [ c 2; c 0 ]);
        check Alcotest.(list bool) "patched bits are right"
          [ true; false; true ]
          (Array.to_list (Coverage.vector cov p_clause));
        check Alcotest.int "served by the patch path" (patches0 + 1)
          (Obs.Counter.value Coverage.c_cache_patches);
        check Alcotest.int "not by a cache miss" misses0
          (Obs.Counter.value Coverage.c_cache_misses));
  ]

(* ---------------- mutation-stream differential ---------------------- *)

(* The tentpole's pin: after an interleaved add/remove stream through
   the delta API, the incrementally maintained structure answers every
   candidate exactly like a from-scratch rebuild of the mutated
   instance, with zero full refreshes. *)
let differential seed ~interleave =
  let params = Bottom.default_params in
  let inst, examples = random_problem seed in
  let ex_t = Examples.make ~pos:(Array.to_list examples) ~neg:[] in
  let cov = Coverage.build ~params inst examples in
  let cands = candidates inst params examples 3 in
  (* warm the memo so the stream also exercises lazy patching *)
  List.iter (fun cl -> ignore (Coverage.vector cov cl)) cands;
  let stream = Examples.mutation_stream ~seed:(seed + 1) ~length:10 inst ex_t in
  let full0 = Obs.Counter.value Coverage.c_full_refreshes in
  if interleave then
    (* one delta per generation, queries interleaved with mutations *)
    List.iteri
      (fun i d ->
        Backend.apply inst [ d ];
        if i mod 3 = 0 then
          ignore (Coverage.vector cov (List.nth cands (i mod List.length cands))))
      stream
  else Backend.apply inst stream;
  let fresh = Coverage.build ~params inst examples in
  Obs.Counter.value Coverage.c_full_refreshes = full0
  && List.for_all
       (fun cl ->
         Array.to_list (Coverage.vector cov cl)
         = Array.to_list (Coverage.vector fresh cl))
       cands

let stream_suite =
  [
    qt ~count:12 "batched mutation stream: incremental == rebuilt, no full refresh"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed -> differential seed ~interleave:false);
    qt ~count:12 "interleaved mutation stream: incremental == rebuilt, no full refresh"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed -> differential seed ~interleave:true);
  ]

(* ---------------- prepared bottom clauses --------------------------- *)

(* A copy with the same tuples, re-added newest first, so its storage
   order is the reverse of [inst]'s. Saturation reads no storage order:
   lookup hits are sorted, and so are the partners the IND chase keeps,
   so the copy saturates into the same bottom clauses, literal order
   included. *)
let copy_instance inst =
  let schema = Instance.schema inst in
  let out = Instance.create schema in
  List.iter
    (fun (r : Schema.relation) ->
      List.iter (Instance.add out r.Schema.rname)
        (Instance.tuples inst r.Schema.rname))
    schema.Schema.relations;
  out

(* With batching and the memo off every test is a subsumption search
   on a prepared bottom clause. The structure under test prepares every
   example before the stream, so an entry the refresh forgot to reset
   would answer from the old saturation. Returns whether the stream
   re-saturated an example into a different bottom clause, and whether
   every answer — vectors on worker domains, then vectors and single
   [covers] tests sequentially — equals a from-scratch build on a
   copy of the mutated instance. *)
let prepared_after_stream seed =
  let params = Bottom.default_params in
  let inst, examples = random_problem seed in
  let n = Array.length examples in
  let subsumption_only cov =
    Coverage.set_batch cov false;
    Coverage.set_cache cov false;
    cov
  in
  let cov = subsumption_only (Coverage.build ~params inst examples) in
  let cands = candidates inst params examples 3 in
  let vectors cov =
    List.map (fun cl -> Array.to_list (Coverage.vector cov cl)) cands
  in
  let covers cov =
    List.map (fun cl -> List.init n (Coverage.covers cov cl)) cands
  in
  ignore (vectors cov);
  let before = Array.copy cov.Coverage.bottoms in
  let ex_t = Examples.make ~pos:(Array.to_list examples) ~neg:[] in
  let stream = Examples.mutation_stream ~seed:(seed + 1) ~length:10 inst ex_t in
  List.iter (fun d -> Backend.apply inst [ d ]) stream;
  let fresh =
    subsumption_only (Coverage.build ~params (copy_instance inst) examples)
  in
  let expected = vectors fresh in
  Coverage.set_domains cov 2;
  Coverage.set_force_parallel cov true;
  let parallel = vectors cov in
  Coverage.set_domains cov 1;
  Coverage.set_force_parallel cov false;
  let moved =
    Array.exists2
      (fun (a : Clause.t) (b : Clause.t) ->
        not (List.equal Atom.equal a.Clause.body b.Clause.body))
      before cov.Coverage.bottoms
  in
  ( moved,
    parallel = expected && vectors cov = expected && covers cov = covers fresh )

let prepared_suite =
  [
    tc "prepared bottom clauses never go stale under adds and removes"
      (fun () ->
        let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        let results = List.map prepared_after_stream seeds in
        check Alcotest.bool "some saturation changed" true
          (List.exists fst results);
        List.iter2
          (fun seed (_, ok) ->
            check Alcotest.bool
              (Fmt.str "seed %d: answers == rebuilt on a copy" seed)
              true ok)
          seeds results);
  ]

(* ---------------- maintained bottoms on the hand variants ---------- *)

module Datasets = Castor_datasets
module Experiment = Castor_eval.Experiment
module Plan = Castor_core.Plan

(* Small configurations of the four datasets, so the twelve variants
   prepare and rebuild in a few seconds. *)
let small_datasets =
  let open Datasets in
  [
    Uwcse.generate
      ~config:
        {
          Uwcse.n_students = 24;
          n_profs = 8;
          n_courses = 12;
          n_terms = 3;
          seed = 7;
        }
      ();
    Hiv.generate
      ~config:{ Hiv.n_compounds = 24; atoms_per_compound = (4, 9); seed = 11 }
      ();
    Imdb.generate
      ~config:
        {
          Imdb.n_movies = 40;
          n_directors = 16;
          n_actors = 30;
          n_countries = 4;
          seed = 13;
        }
      ();
    Family.generate ~config:{ Family.n_roots = 4; depth = 3; seed = 3 } ();
  ]

(* Candidate clauses: body prefixes of the first bottom clauses. *)
let prefixes (cov : Coverage.t) =
  List.concat_map
    (fun i ->
      let bc, _ = Clause.variabilize cov.Coverage.bottoms.(i) in
      List.map
        (fun k ->
          Clause.make bc.Clause.head
            (List.filteri (fun j _ -> j < k) bc.Clause.body))
        [ 1; 2; 4 ])
    (List.init (min 4 (Coverage.length cov)) Fun.id)

(* Whether [cov], maintained through deltas, holds what a from-scratch
   build on [fresh_inst] holds: bottom clauses, probe sets and the
   vectors of [cands]. *)
let same_as_rebuild ~expand ~params fresh_inst (cov : Coverage.t) cands =
  let fresh =
    Coverage.build ~expand ~params fresh_inst cov.Coverage.examples
  in
  let vectors = List.map (fun cl -> Coverage.vector cov cl) cands in
  vectors = List.map (fun cl -> Coverage.vector fresh cl) cands
  && Array.for_all2 Clause.equal cov.Coverage.bottoms fresh.Coverage.bottoms
  && cov.Coverage.probes = fresh.Coverage.probes

(* Prepare a variant (IND chase on), warm the memo, then replay three
   seeded mutation streams one delta at a time with queries in
   between. After each stream the positive and negative structures
   must equal a rebuild on a copy of the mutated instance, with no
   full refresh. Returns a label per failure. *)
let variant_after_streams (ds : Datasets.Dataset.t) vname =
  let prep = Experiment.prepare ds vname in
  let v = prep.Experiment.pvariant in
  let inst = v.Datasets.Dataset.vinstance in
  let pos = prep.Experiment.all_pos and neg = prep.Experiment.all_neg in
  let cands = prefixes pos in
  let query () =
    List.iter
      (fun cl ->
        ignore (Coverage.vector pos cl);
        ignore (Coverage.vector neg cl))
      cands
  in
  query ();
  let full0 = Obs.Counter.value Coverage.c_full_refreshes in
  let plan = Plan.build ~mode:`Equality_only v.Datasets.Dataset.vschema in
  List.concat_map
    (fun seed ->
      let stream =
        Examples.mutation_stream ~seed ~length:24 inst
          ds.Datasets.Dataset.examples
      in
      List.iteri
        (fun i d ->
          Backend.apply inst [ d ];
          if i mod 4 = 3 then query ())
        stream;
      let copy = copy_instance inst in
      let expand rel tu = Plan.expand plan copy rel tu in
      let params = prep.Experiment.bottom_params in
      let label side =
        Fmt.str "%s/%s seed %d: %s" ds.Datasets.Dataset.name vname seed side
      in
      List.filter_map
        (fun (side, cov) ->
          if same_as_rebuild ~expand ~params copy cov cands then None
          else Some (label side))
        [ ("pos", pos); ("neg", neg) ]
      @
      if Obs.Counter.value Coverage.c_full_refreshes <> full0 then
        [ label "full refresh" ]
      else [])
    [ 101; 102; 103 ]

let chase_suite =
  [
    tc
      "maintained bottoms equal a rebuild on every hand variant, with the \
       IND chase" (fun () ->
        let changed0 =
          Obs.Counter.value Coverage.c_delta_rounds
          - Obs.Counter.value Coverage.c_unchanged
        in
        let failures =
          List.concat_map
            (fun (ds : Datasets.Dataset.t) ->
              List.concat_map
                (fun (vname, _) -> variant_after_streams ds vname)
                ds.Datasets.Dataset.variants)
            small_datasets
        in
        check Alcotest.(list string) "no variant diverges from its rebuild" []
          failures;
        check Alcotest.bool "some re-saturation changed a bottom clause" true
          (Obs.Counter.value Coverage.c_delta_rounds
           - Obs.Counter.value Coverage.c_unchanged
          > changed0));
  ]

(* ---------------- full refresh, then the patch path ----------------- *)

let full_refresh_suite =
  [
    tc "a full refresh recomputes probe sets for the deltas after it"
      (fun () ->
        (* the target relation t is part of the schema, so a delta on
           it forces the full-refresh fallback *)
        let schema =
          Schema.make
            [
              Schema.relation "p" [ at ~domain:"d" "x"; at ~domain:"d" "y" ];
              Schema.relation "q" [ at ~domain:"d" "x"; at ~domain:"d" "y" ];
              Schema.relation "t" [ at ~domain:"d" "x" ];
            ]
        in
        let inst = Instance.create schema in
        Instance.add inst "p" (Tuple.of_list [ c 0; c 1 ]);
        let examples =
          Array.init 2 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
        in
        let params = Bottom.default_params in
        let cov = Coverage.build ~params inst examples in
        let t_pq =
          Clause.make
            (Atom.make "t" [ va "A" ])
            [
              Atom.make "p" [ va "A"; va "B" ];
              Atom.make "q" [ va "B"; va "C" ];
            ]
        in
        check Alcotest.(list bool) "baseline" [ false; false ]
          (Array.to_list (Coverage.vector cov t_pq));
        check Alcotest.bool "c5 is no probe of t(c0) yet" false
          (Array.mem (c 5) cov.Coverage.probes.(0));
              let full0 = Obs.Counter.value Coverage.c_full_refreshes in
        (* p(c0,c5) makes t(c0) look c5 up at depth 2 *)
        Backend.apply inst
          [
            Delta.add "t" (Tuple.of_list [ c 9 ]);
            Delta.add "p" (Tuple.of_list [ c 0; c 5 ]);
          ];
        ignore (Coverage.vector cov t_pq);
        check Alcotest.int "the target delta forced a full refresh"
          (full0 + 1)
          (Obs.Counter.value Coverage.c_full_refreshes);
        check Alcotest.bool "the refresh grew t(c0)'s probe set" true
          (Array.mem (c 5) cov.Coverage.probes.(0));
        (* q(c5,c6) holds no value of the old probe sets *)
        let applied0 = Obs.Counter.value Coverage.c_delta_applied in
        Backend.apply inst [ Delta.add "q" (Tuple.of_list [ c 5; c 6 ]) ];
        let got = Array.to_list (Coverage.vector cov t_pq) in
        check Alcotest.int "absorbed incrementally" (applied0 + 1)
          (Obs.Counter.value Coverage.c_delta_applied);
        check Alcotest.int "no second full refresh" (full0 + 1)
          (Obs.Counter.value Coverage.c_full_refreshes);
        let fresh = Coverage.build ~params (copy_instance inst) examples in
        check Alcotest.(list bool) "answers like a rebuild"
          (Array.to_list (Coverage.vector fresh t_pq))
          got;
        check Alcotest.(list bool) "t(c0) now covered" [ true; false ] got);
  ]

(* ---------------- chase order is a function of the data ----------- *)

let insertion_order_suite =
  [
    tc "bottom clauses ignore insertion order on every hand variant, with \
        the IND chase" (fun () ->
        let failures =
          List.concat_map
            (fun (ds : Datasets.Dataset.t) ->
              List.concat_map
                (fun (vname, _) ->
                  let prep = Experiment.prepare ds vname in
                  let v = prep.Experiment.pvariant in
                  let copy = copy_instance v.Datasets.Dataset.vinstance in
                  let plan =
                    Plan.build ~mode:`Equality_only v.Datasets.Dataset.vschema
                  in
                  let expand rel tu = Plan.expand plan copy rel tu in
                  let params = prep.Experiment.bottom_params in
                  List.filter_map
                    (fun (side, (cov : Coverage.t)) ->
                      let fresh =
                        Coverage.build ~expand ~params copy cov.Coverage.examples
                      in
                      if
                        Array.for_all2 Clause.equal cov.Coverage.bottoms
                          fresh.Coverage.bottoms
                      then None
                      else
                        Some
                          (Fmt.str "%s/%s: %s" ds.Datasets.Dataset.name vname
                             side))
                    [
                      ("pos", prep.Experiment.all_pos);
                      ("neg", prep.Experiment.all_neg);
                    ])
                ds.Datasets.Dataset.variants)
            small_datasets
        in
        check Alcotest.(list string) "same bottoms on a newest-first copy" []
          failures);
  ]

let suite =
  substrate_suite @ view_suite @ planner_suite @ online_suite @ stream_suite
  @ prepared_suite @ chase_suite @ full_refresh_suite @ insertion_order_suite
