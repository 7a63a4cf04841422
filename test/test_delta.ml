(* The delta-API battery: the explicit mutation surface of Backend
   (apply / subscribe / generation-from-log) on every substrate, the
   incrementally maintained Datalog views, per-store planner
   statistics, and the online coverage path — a
   single-tuple add/remove on a non-target relation must patch the
   coverage structure without a full refresh, and random interleaved
   mutation streams must leave the incremental structure bit-for-bit
   equal to a from-scratch rebuild on every backend. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Helpers
module Obs = Castor_obs.Obs
module Examples = Castor_ilp.Examples

let specs = [ Backend.Flat; Backend.Sharded 3; Backend.Columnar ]

let itu a b = Tuple.of_list [ Value.int a; Value.int b ]

(* ---------------- substrate delta units ---------------------------- *)

let substrate_case spec =
  tc
    (Fmt.str "%s: apply logs effective deltas and notifies once"
       (Backend.spec_to_string spec))
    (fun () ->
      let b = Backend.create spec [ ("p", 2) ] in
      let seen = ref [] in
      Backend.subscribe b (fun ds -> seen := !seen @ [ ds ]);
      check Alcotest.int "fresh store at generation 0" 0 (Backend.generation b);
      Backend.apply b [] ;
      check Alcotest.int "empty batch is a no-op" 0 (Backend.generation b);
      check Alcotest.int "empty batch not delivered" 0 (List.length !seen);
      (* duplicate add and absent remove are ineffective: dropped from
         the log and from the notified sub-batch *)
      Backend.apply b
        [
          Delta.add "p" (itu 1 2);
          Delta.add "p" (itu 1 2);
          Delta.remove "p" (itu 3 4);
          Delta.add "p" (itu 5 6);
        ];
      check Alcotest.int "generation = effective deltas" 2
        (Backend.generation b);
      check Alcotest.int "one notification per batch" 1 (List.length !seen);
      check Alcotest.int "only the effective sub-batch delivered" 2
        (List.length (List.hd !seen));
      let module B = (val b : Backend.S) in
      (* the singleton forms are [apply] of one delta *)
      check Alcotest.bool "add of a new tuple" true (B.add "p" (itu 7 8));
      check Alcotest.bool "re-add is ineffective" false (B.add "p" (itu 7 8));
      check Alcotest.bool "remove of a stored tuple" true
        (B.remove "p" (itu 1 2));
      check Alcotest.bool "re-remove is ineffective" false
        (B.remove "p" (itu 1 2));
      check Alcotest.int "only effective singletons logged" 4
        (Backend.generation b);
      check Alcotest.int "one notification per effective singleton" 3
        (List.length !seen);
      check Alcotest.bool "store state reflects the log" true
        (B.mem "p" (itu 5 6) && B.mem "p" (itu 7 8)
        && not (B.mem "p" (itu 1 2))))

let capabilities_suite =
  [
    tc "capabilities describe each substrate honestly" (fun () ->
        let caps spec = Backend.capabilities (Backend.create spec [ ("p", 2) ]) in
        let open Backend in
        check Alcotest.bool "flat: subscription only" true
          (caps Flat = { pushdown = false; partitioned = false; subscription = true });
        check Alcotest.bool "sharded: partitioned + subscription" true
          (caps (Sharded 4)
          = { pushdown = false; partitioned = true; subscription = true });
        check Alcotest.bool "columnar: pushdown + subscription" true
          (caps Columnar
          = { pushdown = true; partitioned = false; subscription = true }));
  ]

let substrate_suite = List.map substrate_case specs @ capabilities_suite

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
        let b = Backend.of_instance inst in
        Datalog.watch v b;
        let rec0 = Obs.Counter.value Datalog.c_view_recomputes in
        Backend.apply b [ Delta.add "edge" (etu 2 3) ];
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
        let b = Backend.of_instance inst in
        Datalog.watch v b;
        let rec0 = Obs.Counter.value Datalog.c_view_recomputes in
        Backend.apply b [ Delta.remove "edge" (etu 0 1); Delta.add "edge" (etu 2 3) ];
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
        List.iter
          (fun spec ->
            (* column 0 is the example id, as in a real example store *)
            let store rows =
              let b = Backend.create spec [ ("p", 3) ] in
              Backend.apply b
                (List.map
                   (fun (x, y) ->
                     Delta.Add ("p", Tuple.of_list [ Value.int 0; c x; c y ]))
                   rows);
              b
            in
            let spread = store [ (1, 2); (2, 3) ]
            and skewed = store [ (1, 2); (1, 3) ] in
            let name = Backend.spec_to_string spec in
            check Alcotest.int (name ^ ": same generation")
              (Backend.generation spread) (Backend.generation skewed);
            check (Alcotest.float 1e-9) (name ^ ": two distinct values") 1.0
              (Planner.scan_estimate spread pattern);
            check (Alcotest.float 1e-9) (name ^ ": one distinct value") 2.0
              (Planner.scan_estimate skewed pattern))
          specs);
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
   instance — on every backend, with zero full refreshes. *)
let differential backend seed ~interleave =
  let params = Bottom.default_params in
  let inst, examples = random_problem seed in
  let ex_t = Examples.make ~pos:(Array.to_list examples) ~neg:[] in
  let cov = Coverage.build ~params ~backend inst examples in
  let cands = candidates inst params examples 3 in
  (* warm the memo so the stream also exercises lazy patching *)
  List.iter (fun cl -> ignore (Coverage.vector cov cl)) cands;
  let stream = Examples.mutation_stream ~seed:(seed + 1) ~length:10 inst ex_t in
  let full0 = Obs.Counter.value Coverage.c_full_refreshes in
  let b = Backend.of_instance inst in
  if interleave then
    (* one delta per generation, queries interleaved with mutations *)
    List.iteri
      (fun i d ->
        Backend.apply b [ d ];
        if i mod 3 = 0 then
          ignore (Coverage.vector cov (List.nth cands (i mod List.length cands))))
      stream
  else Backend.apply b stream;
  let fresh = Coverage.build ~params ~backend inst examples in
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
      (fun seed ->
        List.for_all
          (fun backend -> differential backend seed ~interleave:false)
          specs);
    qt ~count:12 "interleaved mutation stream: incremental == rebuilt, no full refresh"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        List.for_all
          (fun backend -> differential backend seed ~interleave:true)
          specs);
  ]

let suite =
  substrate_suite @ view_suite @ planner_suite @ online_suite @ stream_suite
