(* Delta-maintained secondary indexes: random add/remove interleavings
   must leave the flat Instance index identical to a full rebuild, and
   every access path must agree with a naive scan. The columnar engine's
   statistics and dictionary get the same treatment, plus a long churn
   that forces tombstone compaction. *)

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
        Instance.add inst "r" t1;
        Instance.add inst "r" t2;
        check Alcotest.bool "removed" true (Instance.remove inst "r" t1);
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
        check Alcotest.bool "absent" false (Instance.remove inst "r" t1);
        check Alcotest.bool "consistent" true (Instance.index_consistent inst));
    qt ~count:200 "random add/remove interleaving == from-scratch rebuild"
      ops_gen
      (fun ops ->
        let inst = Instance.create abc_schema in
        List.iter
          (fun (add, tu) ->
            if add then Instance.add inst "r" tu
            else ignore (Instance.remove inst "r" tu))
          ops;
        let model = Tuple.Set.elements (replay_model ops) in
        Instance.index_consistent inst
        && List.equal Tuple.equal (sorted (Instance.tuples inst "r")) (sorted model));
  ]

(* -------- Columnar engine: planner statistics and interning ------- *)

let model_distinct model pos =
  List.length
    (List.sort_uniq Value.compare
       (List.map (fun (tu : Tuple.t) -> tu.(pos)) model))

let columnar_suite =
  [
    qt ~count:200 "cardinality and distinct_count agree with the replayed model"
      ops_gen
      (fun ops ->
        let col = Columnar.create [ ("r", 3) ] in
        List.iter
          (fun (add, tu) ->
            if add then ignore (Columnar.add col "r" tu)
            else ignore (Columnar.remove col "r" tu))
          ops;
        let model = Tuple.Set.elements (replay_model ops) in
        Columnar.cardinality col "r" = List.length model
        && List.for_all
             (fun pos ->
               Columnar.distinct_count col "r" pos = model_distinct model pos)
             [ 0; 1; 2 ]);
    qt ~count:100
      "statistics stay exact after every mutation (posting-list upkeep)" ops_gen
      (fun ops ->
        (* probe the statistics after *each* op: stale posting lists or
           distinct counters would surface as a disagreement with the
           replayed model mid-way *)
        let col = Columnar.create [ ("r", 3) ] in
        let model = ref Tuple.Set.empty in
        List.for_all
          (fun (add, tu) ->
            if add then begin
              ignore (Columnar.add col "r" tu);
              model := Tuple.Set.add tu !model
            end
            else begin
              ignore (Columnar.remove col "r" tu);
              model := Tuple.Set.remove tu !model
            end;
            let m = Tuple.Set.elements !model in
            Columnar.cardinality col "r" = List.length m
            && List.for_all
                 (fun pos -> Columnar.distinct_count col "r" pos = model_distinct m pos)
                 [ 0; 1; 2 ])
          ops);
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
            match Columnar.intern_id c v with
            | None -> false
            | Some id -> Value.equal v (Columnar.intern_value c id))
          seen
        && Columnar.dictionary_size c = List.length seen
        && Columnar.consistent c);
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

(* Every Instance read path against the replayed model. Six values over
   three columns often put one value in two columns of a tuple, which
   [tuples_containing] must still return once. *)
let instance_access_paths =
  qt ~count:200 "Instance access paths agree with the replayed model" ops_gen
    (fun ops ->
      let inst = Instance.create abc_schema in
      List.iter
        (fun (add, tu) ->
          if add then Instance.add inst "r" tu
          else ignore (Instance.remove inst "r" tu))
        ops;
      let model = Tuple.Set.elements (replay_model ops) in
      let agrees got keep =
        List.equal Tuple.equal (sorted got) (sorted (List.filter keep model))
      in
      let vals = List.init 6 v and cols = [ 0; 1; 2 ] in
      List.for_all
        (fun x ->
          List.for_all
            (fun p ->
              agrees (Instance.find inst "r" p x) (fun tu -> Value.equal tu.(p) x)
              && List.for_all
                   (fun q ->
                     p = q
                     || List.for_all
                          (fun y ->
                            agrees
                              (Instance.find_matching inst "r" [ (p, x); (q, y) ])
                              (fun tu -> Value.equal tu.(p) x && Value.equal tu.(q) y))
                          vals)
                   cols)
            cols
          && agrees (Instance.tuples_containing inst "r" x) (Tuple.mem x))
        vals
      && agrees (Instance.find_matching inst "r" []) (fun _ -> true))

let suite = instance_suite @ columnar_suite @ [ instance_access_paths ]
