(* Differential battery for the planner-dispatched coverage kernel:
   whatever the backend (flat instance or sharded store, any shard
   count), Coverage.vector with the kernel enabled must agree
   bit-for-bit with the per-example Subsume path, on both a real
   dataset (family) and seeded random problems. Also checks the GYO
   join-forest builder, the semi-join kernel's edge cases, and that
   source-instance mutation invalidates the coverage memo. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Helpers
module Obs = Castor_obs.Obs

let family = Castor_datasets.Family.generate ()

let family_inst = family.Castor_datasets.Dataset.instance

let family_ex = family.Castor_datasets.Dataset.examples

(* every substrate the acceptance battery pins: the flat instance, the
   sharded store at 1/2/4/7 shards, and the interned columnar engine *)
let specs =
  [
    Backend.Flat;
    Backend.Sharded 1;
    Backend.Sharded 2;
    Backend.Sharded 4;
    Backend.Sharded 7;
    Backend.Columnar;
  ]

(* body prefixes of each example's variabilized bottom clause — the
   shapes ARMG actually walks through *)
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
        [ 0; 1; 2; 3; 5; 8; List.length bc.Clause.body ])
    (List.init (min n (Array.length examples)) Fun.id)

(* the kernel answer vs the Subsume answer for one clause, cache off *)
let both cov clause =
  Coverage.set_cache cov false;
  Coverage.set_batch cov true;
  let vb = Coverage.vector cov clause in
  Coverage.set_batch cov false;
  let vs = Coverage.vector cov clause in
  Coverage.set_batch cov true;
  (Array.to_list vb, Array.to_list vs)

let differential_on cov clauses =
  List.iteri
    (fun i clause ->
      let vb, vs = both cov clause in
      check
        Alcotest.(list bool)
        (Fmt.str "clause %d: %s" i (Clause.to_string clause))
        vs vb)
    clauses

let family_suite =
  [
    tc "family: planner coverage == Subsume coverage on every backend"
      (fun () ->
        let params = Bottom.default_params in
        let cands = candidates family_inst params family_ex.Examples.pos 3 in
        let before = Obs.Counter.value Algebra.c_batches in
        List.iter
          (fun backend ->
            let pos =
              Coverage.build ~params ~backend family_inst
                family_ex.Examples.pos
            in
            let neg =
              Coverage.build ~params ~backend family_inst
                family_ex.Examples.neg
            in
            differential_on pos cands;
            differential_on neg cands)
          [ Backend.Flat; Backend.Sharded 4; Backend.Columnar ];
        check Alcotest.bool "kernel actually ran" true
          (Obs.Counter.value Algebra.c_batches > before));
    tc "family: the backend is invisible in coverage vectors" (fun () ->
        let params = Bottom.default_params in
        let cands = candidates family_inst params family_ex.Examples.pos 2 in
        let vectors backend =
          let cov =
            Coverage.build ~params ~backend family_inst
              family_ex.Examples.pos
          in
          Coverage.set_cache cov false;
          List.map (fun c -> Array.to_list (Coverage.vector cov c)) cands
        in
        let v1 = vectors (Backend.Sharded 1) in
        List.iter
          (fun backend ->
            check
              Alcotest.(list (list bool))
              (Backend.spec_to_string backend)
              v1 (vectors backend))
          specs);
  ]

(* ---------------- seeded random problems -------------------------- *)

let at = Schema.attribute

let pq_schema =
  Schema.make
    [
      Schema.relation "p" [ at ~domain:"d" "x"; at ~domain:"d" "y" ];
      Schema.relation "q" [ at ~domain:"d" "x"; at ~domain:"d" "y" ];
    ]

(* a random world over 8 constants plus target examples t(c) for every
   constant, so positives and negatives both occur *)
let random_problem seed =
  let rng = Random.State.make [| seed |] in
  let inst = Instance.create pq_schema in
  let const i = Value.str (Printf.sprintf "c%d" i) in
  let n_tuples = 10 + Random.State.int rng 20 in
  for _ = 1 to n_tuples do
    let rel = if Random.State.bool rng then "p" else "q" in
    Instance.add inst rel
      (Tuple.of_list [ const (Random.State.int rng 8); const (Random.State.int rng 8) ])
  done;
  let examples =
    Array.init 8 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ const i ]))
  in
  (inst, examples)

let random_suite =
  [
    qt ~count:25 "random problems: planner == Subsume on every backend"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        let inst, examples = random_problem seed in
        let params = Bottom.default_params in
        let cands = candidates inst params examples 4 in
        List.for_all
          (fun backend ->
            let cov = Coverage.build ~params ~backend inst examples in
            List.for_all
              (fun clause ->
                let vb, vs = both cov clause in
                vb = vs)
              cands)
          specs);
    qt ~count:25 "random problems: backend invariance of the kernel"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        let inst, examples = random_problem seed in
        let params = Bottom.default_params in
        let cands = candidates inst params examples 3 in
        let vectors backend =
          let cov = Coverage.build ~params ~backend inst examples in
          Coverage.set_cache cov false;
          List.map (fun c -> Array.to_list (Coverage.vector cov c)) cands
        in
        let v1 = vectors (Backend.Sharded 1) in
        List.for_all (fun s -> vectors s = v1) specs);
  ]

(* ---------------- join forest & hypertree decomposition ----------- *)

let hyper_gen =
  QCheck2.Gen.(
    list_size (int_range 0 6)
      (list_size (int_range 0 4) (map (fun i -> Printf.sprintf "x%d" i) (int_bound 5))))

module SS = Hypergraph.SS

(* The classical GYO reduction (repeatedly delete attributes unique to
   one hyperedge and hyperedges contained in another), kept here as an
   independent oracle: Hypergraph.is_acyclic is now defined through
   [decompose], so pinning it against this separately-maintained loop
   is what keeps the two characterizations honest. *)
let gyo_acyclic_oracle (sorts : string list list) =
  let edges = ref (List.map SS.of_list sorts) in
  let changed = ref true in
  while !changed do
    changed := false;
    let counts = Hashtbl.create 16 in
    List.iter
      (fun e ->
        SS.iter
          (fun a ->
            Hashtbl.replace counts a
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts a)))
          e)
      !edges;
    let edges' =
      List.map
        (fun e -> SS.filter (fun a -> Hashtbl.find counts a > 1) e)
        !edges
    in
    if edges' <> !edges then begin
      edges := edges';
      changed := true
    end;
    let rec drop_contained acc = function
      | [] -> List.rev acc
      | e :: rest ->
          let contained =
            SS.is_empty e
            || List.exists (fun f -> SS.subset e f) rest
            || List.exists (fun f -> SS.subset e f) acc
          in
          if contained then drop_contained acc rest
          else drop_contained (e :: acc) rest
    in
    let edges'' = drop_contained [] !edges in
    if List.length edges'' <> List.length !edges then begin
      edges := edges'';
      changed := true
    end
  done;
  List.length !edges <= 1

let forest_suite =
  [
    qt ~count:500 "is_acyclic matches the classical GYO reduction" hyper_gen
      (fun h -> Hypergraph.is_acyclic h = gyo_acyclic_oracle h);
    qt ~count:500 "decompose: width <= 1 exactly on acyclic hypergraphs"
      hyper_gen
      (fun h -> (Hypergraph.decompose h).Hypergraph.width <= 1 = gyo_acyclic_oracle h);
    qt ~count:500 "join_forest is a permutation with children before parents"
      hyper_gen
      (fun h ->
        match Hypergraph.join_forest h with
        | None -> true
        | Some order ->
            let n = List.length h in
            let edges = List.map fst order in
            let idx x =
              let rec go i = function
                | [] -> -1
                | y :: tl -> if y = x then i else go (i + 1) tl
              in
              go 0 edges
            in
            List.sort compare edges = List.init n Fun.id
            && List.for_all
                 (fun (e, parent) ->
                   match parent with
                   | None -> true
                   | Some f ->
                       (* the parent must still be alive when e is
                          removed: f appears after e in removal order *)
                       f <> e && idx e < idx f)
                 order);
    qt ~count:500 "decompose: bags partition the hyperedges" hyper_gen
      (fun h ->
        let d = Hypergraph.decompose h in
        List.sort compare (List.concat (Array.to_list d.Hypergraph.bags))
        = List.init (List.length h) Fun.id);
    qt ~count:500 "decompose: bag vars are the union of member sorts"
      hyper_gen
      (fun h ->
        let sorts = Array.of_list (List.map SS.of_list h) in
        let d = Hypergraph.decompose h in
        Array.for_all Fun.id
          (Array.mapi
             (fun b members ->
               SS.equal d.Hypergraph.bag_vars.(b)
                 (List.fold_left
                    (fun acc e -> SS.union acc sorts.(e))
                    SS.empty members))
             d.Hypergraph.bags));
    qt ~count:500
      "decompose: forest is a bag permutation, children before parents"
      hyper_gen
      (fun h ->
        let d = Hypergraph.decompose h in
        let n = Array.length d.Hypergraph.bags in
        let bags = List.map fst d.Hypergraph.forest in
        let idx x =
          let rec go i = function
            | [] -> -1
            | y :: tl -> if y = x then i else go (i + 1) tl
          in
          go 0 bags
        in
        List.sort compare bags = List.init n Fun.id
        && List.for_all
             (fun (b, parent) ->
               match parent with
               | None -> true
               | Some f -> f <> b && idx b < idx f)
             d.Hypergraph.forest);
    qt ~count:500 "decompose: running-intersection property" hyper_gen
      (fun h ->
        (* for every attribute, the bags containing it form one
           connected subtree: at most one of them hangs off a parent
           outside the set *)
        let d = Hypergraph.decompose h in
        let n = Array.length d.Hypergraph.bags in
        let parent = Hashtbl.create 16 in
        List.iter
          (fun (b, p) -> Hashtbl.replace parent b p)
          d.Hypergraph.forest;
        let attrs =
          List.sort_uniq compare (List.concat h)
        in
        List.for_all
          (fun a ->
            let holds b = SS.mem a d.Hypergraph.bag_vars.(b) in
            let bags_with = List.filter holds (List.init n Fun.id) in
            let tops =
              List.filter
                (fun b ->
                  match Hashtbl.find parent b with
                  | None -> true
                  | Some p -> not (holds p))
                bags_with
            in
            List.length tops <= 1)
          attrs);
    qt ~count:500 "decompose: width-1 reproduces join_forest exactly"
      hyper_gen
      (fun h ->
        let d = Hypergraph.decompose h in
        d.Hypergraph.width > 1
        || Hypergraph.join_forest h
           = Some
               (List.map
                  (fun (b, p) ->
                    ( List.hd d.Hypergraph.bags.(b),
                      Option.map (fun q -> List.hd d.Hypergraph.bags.(q)) p ))
                  d.Hypergraph.forest));
  ]

(* ---------------- cyclic bodies ride the kernel -------------------- *)

let va x = Term.Var x

(* t(A) :- p(A,B): the simplest acyclic join over the pq world *)
let p_clause =
  Clause.make (Atom.make "t" [ va "A" ]) [ Atom.make "p" [ va "A"; va "B" ] ]

let patterns_of clause =
  List.map Planner.pattern_of_atom (clause.Clause.head :: clause.Clause.body)

(* the classic GYO-cyclic triangle over the pq world *)
let triangle =
  let va x = Term.Var x in
  Clause.make
    (Atom.make "t" [ va "A" ])
    [
      Atom.make "p" [ va "A"; va "B" ];
      Atom.make "p" [ va "B"; va "C" ];
      Atom.make "p" [ va "C"; va "A" ];
    ]

(* a 4-cycle alternating both relations *)
let square =
  let va x = Term.Var x in
  Clause.make
    (Atom.make "t" [ va "A" ])
    [
      Atom.make "p" [ va "A"; va "B" ];
      Atom.make "q" [ va "B"; va "C" ];
      Atom.make "p" [ va "C"; va "D" ];
      Atom.make "q" [ va "D"; va "A" ];
    ]

let kernel_cyclic_suite =
  [
    tc "cyclic clause rides the kernel: no fallback, agrees with Subsume"
      (fun () ->
        let params = Bottom.default_params in
        let inst, examples = random_problem 7 in
        let cov = Coverage.build ~params inst examples in
        let store = Option.get (Coverage.store cov) in
        let wide0 = Obs.Counter.value Algebra.c_wide_bags in
        (* the planner path must agree regardless of which strategy the
           cost model picks... *)
        let vb, vs = both cov triangle in
        check Alcotest.(list bool) "planner agrees" vs vb;
        (* ...and the kernel itself, invoked directly, must answer the
           cyclic body bit-for-bit like subsumption *)
        let direct =
          Algebra.semijoin_batch store ~patterns:(patterns_of triangle)
            ~eids:(Array.init (Array.length examples) Fun.id)
        in
        check Alcotest.(list bool) "direct kernel agrees" vs
          (Array.to_list direct);
        check Alcotest.bool "wide bag materialized" true
          (Obs.Counter.value Algebra.c_wide_bags > wide0));
    tc "planner prices the triangle as a width-2 decomposition" (fun () ->
        let sorts =
          List.map Algebra.pattern_vars (patterns_of triangle)
        in
        let d = Hypergraph.decompose sorts in
        check Alcotest.int "width" 2 d.Hypergraph.width);
    tc "cyclic bodies: direct kernel == Subsume on all six backends"
      (fun () ->
        let params = Bottom.default_params in
        List.iter
          (fun seed ->
            let inst, examples = random_problem seed in
            let closed =
              List.filter_map Planner.close_cycle
                (candidates inst params examples 2)
            in
            let clauses = triangle :: square :: closed in
            let reference =
              let cov = Coverage.build ~params inst examples in
              Coverage.set_cache cov false;
              Coverage.set_batch cov false;
              List.map
                (fun c -> Array.to_list (Coverage.vector cov c))
                clauses
            in
            List.iter
              (fun backend ->
                let cov = Coverage.build ~params ~backend inst examples in
                let store = Option.get (Coverage.store cov) in
                let eids = Array.init (Array.length examples) Fun.id in
                List.iteri
                  (fun i clause ->
                    let direct =
                      Algebra.semijoin_batch store
                        ~patterns:(patterns_of clause) ~eids
                    in
                    check
                      Alcotest.(list bool)
                      (Fmt.str "%s clause %d"
                         (Backend.spec_to_string backend)
                         i)
                      (List.nth reference i)
                      (Array.to_list direct))
                  clauses)
              specs)
          [ 3; 17 ]);
    tc "decomposition memo: α-equivalent probes hit, order changes miss"
      (fun () ->
        let params = Bottom.default_params in
        let inst, examples = random_problem 23 in
        let cov = Coverage.build ~params inst examples in
        Coverage.set_cache cov false;
        let hits0 = Obs.Counter.value Coverage.c_decomp_hits in
        ignore (Coverage.vector cov triangle);
        ignore (Coverage.vector cov triangle);
        check Alcotest.bool "second probe served from the memo" true
          (Obs.Counter.value Coverage.c_decomp_hits > hits0);
        (* same canonical key, different literal order: the memoized
           positional bag indexes would be unsound, so the entry must
           be recomputed — and the vectors must agree either way *)
        let rotated =
          Clause.make triangle.Clause.head
            (match triangle.Clause.body with
            | a :: rest -> rest @ [ a ]
            | [] -> [])
        in
        check Alcotest.string "rotation is α-equivalent"
          (Clause.canonical_key triangle)
          (Clause.canonical_key rotated);
        let vb, vs = both cov rotated in
        check Alcotest.(list bool) "rotated body agrees" vs vb);
  ]

(* ---------------- semi-join kernel edge cases ---------------------- *)

let edge_suite =
  [
    tc "semijoin_batch: empty example list yields an empty answer"
      (fun () ->
        let inst, examples = random_problem 11 in
        let cov = Coverage.build ~params:Bottom.default_params inst examples in
        let store = Option.get (Coverage.store cov) in
        let res =
          Algebra.semijoin_batch store ~patterns:(patterns_of p_clause)
            ~eids:[||]
        in
        check Alcotest.(list bool) "no answers" [] (Array.to_list res));
    tc "semijoin_batch: duplicate example ids answer like singletons"
      (fun () ->
        let inst, examples = random_problem 13 in
        let cov = Coverage.build ~params:Bottom.default_params inst examples in
        let store = Option.get (Coverage.store cov) in
        let patterns = patterns_of p_clause in
        let single e =
          (Algebra.semijoin_batch store ~patterns ~eids:[| e |]).(0)
        in
        let res =
          Algebra.semijoin_batch store ~patterns ~eids:[| 0; 1; 0; 2; 0 |]
        in
        check
          Alcotest.(list bool)
          "each duplicate slot answered independently"
          [ single 0; single 1; single 0; single 2; single 0 ]
          (Array.to_list res);
        (* and the duplicates pin against the subsumption oracle *)
        Coverage.set_cache cov false;
        check Alcotest.bool "slot 0 == Subsume" (Coverage.covers cov p_clause 0)
          res.(0));
    tc "semijoin_batch: zero-tuple body relation matches subsumption"
      (fun () ->
        (* a world where q is empty: any clause mentioning q covers
           nothing, on both evaluation paths *)
        let inst = Instance.create pq_schema in
        let c i = Value.str (Printf.sprintf "c%d" i) in
        Instance.add inst "p" (Tuple.of_list [ c 0; c 1 ]);
        Instance.add inst "p" (Tuple.of_list [ c 1; c 2 ]);
        let examples =
          Array.init 3 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
        in
        let cov = Coverage.build ~params:Bottom.default_params inst examples in
        let clause =
          Clause.make
            (Atom.make "t" [ va "A" ])
            [ Atom.make "p" [ va "A"; va "B" ]; Atom.make "q" [ va "A"; va "B" ] ]
        in
        let vb, vs = both cov clause in
        check Alcotest.(list bool) "agree" vs vb;
        check Alcotest.(list bool) "all uncovered" [ false; false; false ] vb);
  ]

(* ---------------- mutation invalidates the memo -------------------- *)

let mutation_suite =
  [
    tc "instance mutation between covers calls invalidates the memo"
      (fun () ->
        let inst = Instance.create pq_schema in
        let c i = Value.str (Printf.sprintf "c%d" i) in
        Instance.add inst "p" (Tuple.of_list [ c 0; c 1 ]);
        let examples =
          [| Atom.of_tuple "t" (Tuple.of_list [ c 0 ]);
             Atom.of_tuple "t" (Tuple.of_list [ c 1 ]) |]
        in
        let cov = Coverage.build ~params:Bottom.default_params inst examples in
        (* cache stays ON: the stale-memo bug this regresses was the
           cached vector surviving a mutation of the source instance *)
        check Alcotest.(list bool) "before mutation" [ true; false ]
          (Array.to_list (Coverage.vector cov p_clause));
        check Alcotest.bool "covers agrees" true (Coverage.covers cov p_clause 0);
        (* mutate: now c1 also has an outgoing p edge *)
        Instance.add inst "p" (Tuple.of_list [ c 1; c 0 ]);
        check Alcotest.(list bool) "after add" [ true; true ]
          (Array.to_list (Coverage.vector cov p_clause));
        check Alcotest.bool "covers sees the new tuple" true
          (Coverage.covers cov p_clause 1);
        (* and deletion flows through too *)
        ignore (Instance.remove_tuple inst "p" (Tuple.of_list [ c 0; c 1 ]));
        check Alcotest.(list bool) "after remove" [ false; true ]
          (Array.to_list (Coverage.vector cov p_clause));
        check Alcotest.bool "covers sees the deletion" false
          (Coverage.covers cov p_clause 0));
    tc "store-backed coverage refreshes from the live instance too"
      (fun () ->
        let inst = Instance.create pq_schema in
        let c i = Value.str (Printf.sprintf "c%d" i) in
        Instance.add inst "p" (Tuple.of_list [ c 0; c 1 ]);
        let examples = [| Atom.of_tuple "t" (Tuple.of_list [ c 1 ]) |] in
        let cov =
          Coverage.build ~params:Bottom.default_params
            ~backend:(Backend.Sharded 2) inst examples
        in
        check Alcotest.bool "uncovered before" false
          (Coverage.covers cov p_clause 0);
        Instance.add inst "p" (Tuple.of_list [ c 1; c 2 ]);
        check Alcotest.bool "covered after the shard-backed refresh" true
          (Coverage.covers cov p_clause 0));
  ]

let suite =
  family_suite @ random_suite @ forest_suite @ kernel_cyclic_suite
  @ edge_suite @ mutation_suite
