(* Sharded store and delta-maintained secondary indexes: random
   add/remove interleavings must leave both the flat Instance index and
   the sharded Store indexes identical to a from-scratch rebuild, and
   every access path must agree with a naive scan. The columnar engine
   gets the same treatment, plus a long churn that forces tombstone
   compaction. *)

open Castor_relational
open Helpers
module Obs = Castor_obs.Obs

let v i = Value.str (Printf.sprintf "v%d" i)

(* a deliberately small value space so adds collide and removes hit *)
let tuple3_gen =
  QCheck2.Gen.(
    map
      (fun (a, b, c) -> Tuple.of_list [ v a; v b; v c ])
      (triple (int_bound 5) (int_bound 5) (int_bound 5)))

let ops_gen = QCheck2.Gen.(list_size (int_range 0 80) (pair bool tuple3_gen))

let replay_model ops =
  List.fold_left
    (fun s (add, tu) ->
      if add then Tuple.Set.add tu s else Tuple.Set.remove tu s)
    Tuple.Set.empty ops

let sorted l = List.sort Tuple.compare l

let print_ops ops =
  String.concat "; "
    (List.map
       (fun (add, tu) ->
         (if add then "+" else "-") ^ Fmt.str "%a" Tuple.pp tu)
       ops)

let instance_suite =
  [
    tc "Instance.remove prunes every column's index bucket" (fun () ->
        let inst = Instance.create abc_schema in
        let t1 = Tuple.of_list [ v 0; v 1; v 2 ] in
        let t2 = Tuple.of_list [ v 0; v 3; v 2 ] in
        Instance.add_tuple inst "r" t1;
        Instance.add_tuple inst "r" t2;
        check Alcotest.bool "removed" true (Instance.remove_tuple inst "r" t1);
        (* all three columns of t1 must be gone from the index; t2 stays *)
        check Alcotest.int "col0 keeps t2" 1
          (List.length (Instance.find inst "r" 0 (v 0)));
        check Alcotest.int "col1 bucket dropped" 0
          (List.length (Instance.find inst "r" 1 (v 1)));
        check Alcotest.int "col2 keeps t2" 1
          (List.length (Instance.find inst "r" 2 (v 2)));
        check Alcotest.bool "index consistent" true (Instance.index_consistent inst));
    tc "Instance.remove of an absent tuple is a no-op" (fun () ->
        let inst = Instance.create abc_schema in
        let t1 = Tuple.of_list [ v 0; v 1; v 2 ] in
        check Alcotest.bool "absent" false (Instance.remove_tuple inst "r" t1);
        check Alcotest.bool "consistent" true (Instance.index_consistent inst));
    qt ~count:200 "random add/remove interleaving == from-scratch rebuild"
      ops_gen
      (fun ops ->
        let inst = Instance.create abc_schema in
        List.iter
          (fun (add, tu) ->
            if add then Instance.add_tuple inst "r" tu
            else ignore (Instance.remove_tuple inst "r" tu))
          ops;
        let model = Tuple.Set.elements (replay_model ops) in
        Instance.index_consistent inst
        && List.equal Tuple.equal (sorted (Instance.tuples inst "r")) (sorted model));
  ]

let shards_gen = QCheck2.Gen.int_range 1 5

let store_suite =
  [
    qt ~count:200 "Store interleaving: indexes == rebuild, every path agrees"
      QCheck2.Gen.(pair shards_gen ops_gen)
      (fun (shards, ops) ->
        let st = Store.create ~shards [ ("r", 3) ] in
        List.iter
          (fun (add, tu) ->
            if add then ignore (Store.add_tuple st "r" tu)
            else ignore (Store.remove_tuple st "r" tu))
          ops;
        let model = Tuple.Set.elements (replay_model ops) in
        Store.index_consistent st
        && List.equal Tuple.equal (sorted (Store.tuples st "r")) (sorted model)
        && (* indexed find == scan filter, on key and non-key columns *)
        List.for_all
          (fun pos ->
            List.for_all
              (fun i ->
                List.equal Tuple.equal
                  (sorted (Store.find st "r" pos (v i)))
                  (sorted
                     (List.filter (fun tu -> Value.equal tu.(pos) (v i)) model)))
              [ 0; 1; 2; 3; 4; 5 ])
          [ 0; 1; 2 ]
        && List.for_all
             (fun i ->
               List.equal Tuple.equal
                 (sorted (Store.tuples_containing st "r" (v i)))
                 (sorted
                    (List.filter
                       (fun tu -> Array.exists (fun x -> Value.equal x (v i)) tu)
                       model)))
             [ 0; 1; 2; 3; 4; 5 ]);
    qt ~count:100 "shard count never changes Store.of_instance contents"
      QCheck2.Gen.(pair abc_instance_gen shards_gen)
      (fun (inst, shards) ->
        let st1 = Store.of_instance ~shards:1 inst in
        let stn = Store.of_instance ~shards inst in
        List.equal Tuple.equal
          (sorted (Store.tuples st1 "r"))
          (sorted (Store.tuples stn "r"))
        && Store.index_consistent stn
        && List.for_all
             (fun i ->
               List.equal Tuple.equal
                 (sorted (Store.find st1 "r" 0 (v i)))
                 (sorted (Store.find stn "r" 0 (v i))))
             [ 0; 1; 2; 3; 4 ]);
    tc "rows live on the shard their key hashes to" (fun () ->
        let st = Store.create ~shards:4 [ ("r", 3) ] in
        for i = 0 to 19 do
          ignore (Store.add st "r" (Tuple.of_list [ v i; v (i mod 3); v 0 ]))
        done;
        for s = 0 to Store.n_shards st - 1 do
          List.iter
            (fun (tu : Tuple.t) ->
              check Alcotest.int
                (Fmt.str "shard of %a" Tuple.pp tu)
                s
                (Store.shard_of_value st tu.(0)))
            (Store.shard_tuples st s "r")
        done);
    tc "Store.add is set-semantics and Store.remove returns presence" (fun () ->
        let st = Store.create ~shards:2 [ ("r", 3) ] in
        let tu = Tuple.of_list [ v 0; v 1; v 2 ] in
        check Alcotest.bool "first add" true (Store.add st "r" tu);
        check Alcotest.bool "dup add" false (Store.add st "r" tu);
        check Alcotest.int "one row" 1 (Store.cardinality st "r");
        check Alcotest.bool "remove" true (Store.remove st "r" tu);
        check Alcotest.bool "re-remove" false (Store.remove st "r" tu);
        check Alcotest.bool "consistent" true (Store.index_consistent st));
  ]

(* -------- Backend.spec: the string form carried by CLI flags ------- *)

let spec_suite =
  [
    tc "Backend.spec_of_string parses every documented form" (fun () ->
        let parses s expect =
          check Alcotest.bool s true (Backend.spec_of_string s = expect)
        in
        parses "instance" Backend.Flat;
        parses "flat" Backend.Flat;
        parses "store" (Backend.Sharded Store.default_shards);
        parses "store:1" (Backend.Sharded 1);
        parses "store:4" (Backend.Sharded 4);
        (* whitespace and case are forgiven: these arrive from shells *)
        parses "  Store:2 " (Backend.Sharded 2);
        parses "FLAT" Backend.Flat;
        parses "columnar" Backend.Columnar;
        parses "column" Backend.Columnar;
        parses " Columnar " Backend.Columnar);
    tc "Backend.spec_to_string round-trips through spec_of_string" (fun () ->
        List.iter
          (fun spec ->
            let s = Backend.spec_to_string spec in
            check Alcotest.bool (s ^ " round-trips") true
              (Backend.spec_of_string s = spec))
          [ Backend.Flat; Backend.Sharded 1; Backend.Sharded 4;
            Backend.Sharded 64; Backend.Columnar; Backend.default_spec ]);
    tc "Backend.spec_of_string rejects malformed specs" (fun () ->
        List.iter
          (fun s ->
            match Backend.spec_of_string s with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" s))
          [ "store:0"; "store:-3"; "store:x"; "store:"; "shard:2"; "postgres"; "" ]);
  ]

(* -------- Columnar backend: planner statistics and interning ------- *)

let all_specs = [ Backend.Flat; Backend.Sharded 3; Backend.Columnar ]

let apply_ops (backend : Backend.t) ops =
  let module B = (val backend) in
  List.iter
    (fun (add, tu) ->
      if add then ignore (B.add "r" tu) else ignore (B.remove "r" tu))
    ops

let model_distinct model pos =
  List.length
    (List.sort_uniq Value.compare
       (List.map (fun (tu : Tuple.t) -> tu.(pos)) model))

let columnar_suite =
  [
    qt ~count:200 "cardinality and distinct_count agree across all backends"
      ops_gen
      (fun ops ->
        let backends =
          List.map (fun spec -> Backend.create spec [ ("r", 3) ]) all_specs
        in
        List.iter (fun b -> apply_ops b ops) backends;
        let model = Tuple.Set.elements (replay_model ops) in
        List.for_all
          (fun b ->
            let module B = (val b : Backend.S) in
            B.cardinality "r" = List.length model
            && List.for_all
                 (fun pos -> B.distinct_count "r" pos = model_distinct model pos)
                 [ 0; 1; 2 ])
          backends);
    qt ~count:100
      "statistics stay exact after every mutation (memo invalidation)" ops_gen
      (fun ops ->
        (* probe the statistics after *each* op: a stale per-generation
           memo (the distinct_count caches) or stale posting lists would
           surface as a disagreement with the replayed model mid-way *)
        List.for_all
          (fun b ->
            let module B = (val b : Backend.S) in
            let model = ref Tuple.Set.empty in
            List.for_all
              (fun (add, tu) ->
                if add then begin
                  ignore (B.add "r" tu);
                  model := Tuple.Set.add tu !model
                end
                else begin
                  ignore (B.remove "r" tu);
                  model := Tuple.Set.remove tu !model
                end;
                let m = Tuple.Set.elements !model in
                B.cardinality "r" = List.length m
                && List.for_all
                     (fun pos -> B.distinct_count "r" pos = model_distinct m pos)
                     [ 0; 1; 2 ])
              ops)
          (List.map (fun spec -> Backend.create spec [ ("r", 3) ]) all_specs));
    qt ~count:200 "intern dictionary round-trips and survives removals" ops_gen
      (fun ops ->
        let c = Columnar.create [ ("r", 3) ] in
        List.iter
          (fun (add, tu) ->
            if add then ignore (Columnar.add c "r" tu)
            else ignore (Columnar.remove c "r" tu))
          ops;
        let added =
          List.filter_map (fun (add, tu) -> if add then Some tu else None) ops
        in
        let seen =
          List.sort_uniq Value.compare
            (List.concat_map Array.to_list added)
        in
        (* every value ever added stays interned — removals tombstone
           rows but never reclaim dictionary ids *)
        List.for_all
          (fun v ->
            match Columnar.intern_id c "r" v with
            | None -> false
            | Some id -> Value.equal v (Columnar.intern_value c "r" id))
          seen
        && Columnar.dictionary_size c "r" = List.length seen
        && Columnar.consistent c);
    qt ~count:200 "columnar access paths agree with the replayed model"
      ops_gen
      (fun ops ->
        let c = Columnar.create [ ("r", 3) ] in
        List.iter
          (fun (add, tu) ->
            if add then ignore (Columnar.add c "r" tu)
            else ignore (Columnar.remove c "r" tu))
          ops;
        let model = Tuple.Set.elements (replay_model ops) in
        Columnar.consistent c
        && List.equal Tuple.equal (sorted (Columnar.tuples c "r")) (sorted model)
        && List.for_all
             (fun pos ->
               List.for_all
                 (fun i ->
                   List.equal Tuple.equal
                     (sorted (Columnar.find c "r" pos (v i)))
                     (sorted
                        (List.filter
                           (fun (tu : Tuple.t) -> Value.equal tu.(pos) (v i))
                           model)))
                 [ 0; 1; 2; 3; 4; 5 ])
             [ 0; 1; 2 ]
        && List.for_all
             (fun i ->
               List.equal Tuple.equal
                 (sorted (Columnar.tuples_containing c "r" (v i)))
                 (sorted
                    (List.filter
                       (fun tu -> Array.exists (fun x -> Value.equal x (v i)) tu)
                       model)))
             [ 0; 1; 2; 3; 4; 5 ]);
    qt ~count:100 "compaction under churn: consistent, ordered, bounded"
      QCheck2.Gen.(
        list_size (int_range 300 600)
          (pair bool
             (map
                (fun (a, b, c) -> Tuple.of_list [ v a; v b; v c ])
                (triple (int_bound 2) (int_bound 2) (int_bound 2)))))
      (fun ops ->
        (* 27 possible rows keep the relation small, so a few dozen
           removes already outnumber the live rows and force a
           compaction; the model is the live rows newest first *)
        let c = Columnar.create [ ("r", 3) ] in
        let compactions0 = Obs.Counter.value Columnar.c_compactions in
        let model = ref [] and effective = ref 0 in
        List.for_all
          (fun (add, tu) ->
            let present = List.exists (Tuple.equal tu) !model in
            if add then begin
              ignore (Columnar.add c "r" tu);
              if not present then model := tu :: !model
            end
            else begin
              ignore (Columnar.remove c "r" tu);
              model := List.filter (fun x -> not (Tuple.equal x tu)) !model
            end;
            if add <> present then incr effective;
            let live = Columnar.cardinality c "r" in
            Columnar.consistent c
            && List.equal Tuple.equal (Columnar.tuples c "r") !model
            && Columnar.slots c "r" <= 2 * max live 16
            && Columnar.generation c = !effective)
          ops
        && Obs.Counter.value Columnar.c_compactions > compactions0);
  ]

let suite = instance_suite @ store_suite @ spec_suite @ columnar_suite
