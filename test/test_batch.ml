(* Differential battery for the planner-dispatched coverage kernel:
   Coverage.vector with the kernel enabled must agree bit-for-bit with
   the per-example Subsume path, on both a real dataset (family) and
   seeded random problems. Also checks the GYO join forest, the
   semi-join kernel's edge cases, and that source-instance mutation
   invalidates the coverage memo. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Helpers
module Obs = Castor_obs.Obs

let family = Castor_datasets.Family.generate ()

let family_inst = family.Castor_datasets.Dataset.instance

let family_ex = family.Castor_datasets.Dataset.examples

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
    tc "family: planner coverage == Subsume coverage on the default store"
      (fun () ->
        let params = Bottom.default_params in
        let cands = candidates family_inst params family_ex.Examples.pos 3 in
        let before = Obs.Counter.value Algebra.c_batches in
        let pos = Coverage.build ~params family_inst family_ex.Examples.pos in
        let neg = Coverage.build ~params family_inst family_ex.Examples.neg in
        differential_on pos cands;
        differential_on neg cands;
        check Alcotest.bool "kernel actually ran" true
          (Obs.Counter.value Algebra.c_batches > before));
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
    qt ~count:25 "random problems: planner == Subsume on the default store"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        let inst, examples = random_problem seed in
        let params = Bottom.default_params in
        let cands = candidates inst params examples 4 in
        let cov = Coverage.build ~params inst examples in
        List.for_all
          (fun clause ->
            let vb, vs = both cov clause in
            vb = vs)
          cands);
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
    qt ~count:500 "decompose: width <= 1 exactly on acyclic hypergraphs"
      hyper_gen
      (fun h -> (Hypergraph.decompose h).Hypergraph.width <= 1 = gyo_acyclic_oracle h);
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
    tc "cyclic bodies: direct kernel == Subsume on the default store"
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
            let cov = Coverage.build ~params inst examples in
            let store = Option.get (Coverage.store cov) in
            let eids = Array.init (Array.length examples) Fun.id in
            List.iteri
              (fun i clause ->
                let direct =
                  Algebra.semijoin_batch store ~patterns:(patterns_of clause)
                    ~eids
                in
                check
                  Alcotest.(list bool)
                  (Fmt.str "seed %d clause %d" seed i)
                  (List.nth reference i) (Array.to_list direct))
              clauses)
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
        (* the memo is keyed by the hypergraph signature, which names
           no variable: a renamed triangle hits *)
        let renamed = Clause.rename_apart "'" triangle in
        let hits1 = Obs.Counter.value Coverage.c_decomp_hits in
        ignore (Coverage.vector cov renamed);
        check Alcotest.int "renamed probe served from the memo" (hits1 + 1)
          (Obs.Counter.value Coverage.c_decomp_hits);
        (* a different literal order is a different signature: the
           positional bag indexes must be rebuilt, not reused — and the
           vectors must agree either way *)
        let rotated =
          Clause.make triangle.Clause.head
            (match triangle.Clause.body with
            | a :: rest -> rest @ [ a ]
            | [] -> [])
        in
        let hits2 = Obs.Counter.value Coverage.c_decomp_hits in
        let vb, vs = both cov rotated in
        check Alcotest.int "rotated probe missed the memo" hits2
          (Obs.Counter.value Coverage.c_decomp_hits);
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
    tc "a literal of unknown relation or wrong arity covers nothing, on every route"
      (fun () ->
        (* facts p(c0,c1), p(c1,c2); examples t(c0..c2). A body literal
           whose relation is absent (r/2) or whose arity differs from
           the stored one (p/1, p/3) matches no fact, so no example is
           covered — whichever strategy answers *)
        let inst = Instance.create pq_schema in
        let c i = Value.str (Printf.sprintf "c%d" i) in
        Instance.add inst "p" (Tuple.of_list [ c 0; c 1 ]);
        Instance.add inst "p" (Tuple.of_list [ c 1; c 2 ]);
        let examples =
          Array.init 3 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
        in
        let cov = Coverage.build ~params:Bottom.default_params inst examples in
        let store = Option.get (Coverage.store cov) in
        let eids = Array.init 3 Fun.id in
        let none = [ false; false; false ] in
        List.iter
          (fun (label, lit) ->
            let clause = Clause.make (Atom.make "t" [ va "A" ]) [ lit ] in
            check Alcotest.(list bool) (label ^ ": direct kernel") none
              (Array.to_list
                 (Algebra.semijoin_batch store ~patterns:(patterns_of clause)
                    ~eids));
            let vb, vs = both cov clause in
            check Alcotest.(list bool) (label ^ ": batching on") none vb;
            check Alcotest.(list bool) (label ^ ": batching off") none vs;
            check Alcotest.(list bool) (label ^ ": subsumes_naive") none
              (Array.to_list
                 (Array.map
                    (fun b -> Subsume.subsumes_naive clause b)
                    cov.Coverage.bottoms)))
          [
            ("missing relation r(A,B)", Atom.make "r" [ va "A"; va "B" ]);
            ("short literal p(A)", Atom.make "p" [ va "A" ]);
            ("long literal p(A,B,C)", Atom.make "p" [ va "A"; va "B"; va "C" ]);
          ]);
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
        ignore (Instance.remove inst "p" (Tuple.of_list [ c 0; c 1 ]));
        check Alcotest.(list bool) "after remove" [ false; true ]
          (Array.to_list (Coverage.vector cov p_clause));
        check Alcotest.bool "covers sees the deletion" false
          (Coverage.covers cov p_clause 0));
  ]

(* ---------------- ARMG: warm start vs the paper's linear scan ------ *)

(* Algorithm 3 as the paper writes it: each blocking atom is found by a
   linear scan for the least k whose prefix fails to cover. *)
let reference_armg ~repair cov (c : Clause.t) i =
  let covers_prefix c k = Coverage.covers cov (Armg.prefix_clause c k) i in
  let rec go (c : Clause.t) =
    let n = Clause.length c in
    let rec least_failing k =
      if k > n then None
      else if covers_prefix c k then least_failing (k + 1)
      else Some k
    in
    match least_failing 1 with
    | None -> c
    | Some k ->
        let body = List.filteri (fun j _ -> j <> k - 1) c.Clause.body in
        go (Clause.head_connected (repair { c with Clause.body = body }))
  in
  if covers_prefix c 0 then Some (go c) else None

(* [Armg.generalize] and the reference agree on every (bottom clause,
   example) pair, under the identity repair and Castor's IND repair.
   Two literals per relation and constant keep the linear scan, which
   is quadratic in the bottom clause's length, affordable. *)
let armg_agrees ?expand ~schema inst (examples : Atom.t array) bottom_seeds =
  let params = { Bottom.default_params with Bottom.per_relation_cap = 2 } in
  let cov = Coverage.build ?expand ~params inst examples in
  let ind_repair = Castor_core.Ind_repair.repair (Castor_core.Plan.build schema) in
  let render = Option.map Clause.to_string in
  List.iter
    (fun s ->
      (* built as Castor builds its bottom clauses *)
      let bc =
        Minimize.reduce
          (Bottom.bottom_clause ?expand ~prune:true ~params inst examples.(s))
      in
      Array.iteri
        (fun i _ ->
          List.iter
            (fun (name, repair) ->
              check
                Alcotest.(option string)
                (Fmt.str "bottom %d, example %d, %s repair" s i name)
                (render (reference_armg ~repair cov bc i))
                (render (Armg.generalize ~repair cov bc i)))
            [ ("identity", Fun.id); ("IND", ind_repair) ])
        examples)
    bottom_seeds

let armg_suite =
  [
    tc "armg: warm-started search == linear scan on the family positives"
      (fun () ->
        let schema = Instance.schema family_inst in
        let plan = Castor_core.Plan.build schema in
        let expand rel tu = Castor_core.Plan.expand plan family_inst rel tu in
        let pos = family_ex.Examples.pos in
        (* the bottom clauses of every fourth positive, against every
           positive *)
        let seeds =
          List.filter (fun i -> i mod 4 = 0) (List.init (Array.length pos) Fun.id)
        in
        armg_agrees ~expand ~schema family_inst pos seeds);
    qt ~count:10 "armg: warm-started search == linear scan on random problems"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        let inst, examples = random_problem seed in
        armg_agrees ~schema:pq_schema inst examples
          (List.init (Array.length examples) Fun.id);
        true);
  ]

(* ---------------- values that print alike -------------------------- *)

(* The kernel compares dictionary ids, subsumption compares values:
   they must agree however the values print and whichever relation
   first interned them. Constant [(k, kind)] is [Int k], [Str "k"] or
   [Str "k, k+1"]: the first two print alike, and the separator makes
   [(Str "1, 2", Int 3)] print like [(Int 1, Str "2, 3")]. *)
let alike (k, kind) =
  match kind with
  | 0 -> Value.int k
  | 1 -> Value.str (string_of_int k)
  | _ -> Value.str (Printf.sprintf "%d, %d" k (k + 1))

let alike_pool =
  List.concat_map (fun k -> List.init 3 (fun kind -> alike (k, kind))) [ 0; 1; 2; 3 ]

let alike_rels = [ "r0"; "r1"; "r2" ]

(* [n_rels] relations (2 or 3) over shared values, and one example
   t(v) per value of the pool *)
let alike_problem (n_rels, facts) =
  let rels = List.filteri (fun i _ -> i < n_rels) alike_rels in
  let schema =
    Schema.make
      (List.map
         (fun r -> Schema.relation r [ at ~domain:"d" "x"; at ~domain:"d" "y" ])
         rels)
  in
  let inst = Instance.create schema in
  List.iter
    (fun (r, x, y) ->
      Instance.add inst (List.nth rels (r mod n_rels))
        (Tuple.of_list [ alike x; alike y ]))
    facts;
  let examples =
    Array.of_list
      (List.map (fun v -> Atom.of_tuple "t" (Tuple.of_list [ v ])) alike_pool)
  in
  (rels, inst, examples)

let alike_gen =
  QCheck2.Gen.(
    let value = pair (int_bound 3) (int_bound 2) in
    pair (int_range 2 3)
      (list_size (int_range 4 24) (triple (int_bound 2) value value)))

let alike_suite =
  [
    qt ~count:40
      "kernel answers do not depend on how values print or which relation \
       interned them"
      alike_gen
      (fun problem ->
        let rels, inst, examples = alike_problem problem in
        let params = Bottom.default_params in
        let cov = Coverage.build ~params inst examples in
        Coverage.set_cache cov false;
        Coverage.set_batch cov true;
        let store = Option.get (Coverage.store cov) in
        let eids = Array.init (Array.length examples) Fun.id in
        let prefixes =
          candidates inst params examples (Array.length examples)
        in
        (* one constant per body literal: t(A) :- r(A, v) for every v *)
        let with_consts =
          List.concat_map
            (fun r ->
              List.map
                (fun v ->
                  Clause.make
                    (Atom.make "t" [ va "A" ])
                    [ Atom.make r [ va "A"; Term.Const v ] ])
                alike_pool)
            rels
        in
        let clauses =
          prefixes @ List.filter_map Planner.close_cycle prefixes @ with_consts
        in
        List.for_all
          (fun clause ->
            let reference =
              Array.map (Subsume.subsumes clause) cov.Coverage.bottoms
            in
            Coverage.vector cov clause = reference
            && Algebra.semijoin_batch store ~patterns:(patterns_of clause) ~eids
               = reference)
          clauses);
    tc "a pattern constant absent from the store covers nothing" (fun () ->
        let _, inst, examples =
          alike_problem (2, [ (0, (1, 0), (2, 1)); (1, (2, 1), (3, 2)) ])
        in
        let cov = Coverage.build ~params:Bottom.default_params inst examples in
        let store = Option.get (Coverage.store cov) in
        let absent = Value.str "never stored" in
        check Alcotest.(option int) "not in the dictionary" None
          (Columnar.intern_id store absent);
        let clause =
          Clause.make
            (Atom.make "t" [ va "A" ])
            [ Atom.make "r0" [ va "A"; Term.Const absent ] ]
        in
        let none = Array.make (Array.length examples) false in
        check Alcotest.(array bool) "direct kernel" none
          (Algebra.semijoin_batch store ~patterns:(patterns_of clause)
             ~eids:(Array.init (Array.length examples) Fun.id));
        let vb, vs = both cov clause in
        check Alcotest.(list bool) "batching on" (Array.to_list none) vb;
        check Alcotest.(list bool) "batching off" (Array.to_list none) vs);
    tc "p(X,5) and p(X,\"5\") select different rows" (fun () ->
        let inst = Instance.create pq_schema in
        let c i = Value.str (Printf.sprintf "c%d" i) in
        Instance.add inst "p" (Tuple.of_list [ c 0; Value.int 5 ]);
        Instance.add inst "p" (Tuple.of_list [ c 1; Value.str "5" ]);
        let examples =
          Array.init 2 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
        in
        let cov = Coverage.build ~params:Bottom.default_params inst examples in
        let store = Option.get (Coverage.store cov) in
        List.iter
          (fun (label, v, expected) ->
            let clause =
              Clause.make
                (Atom.make "t" [ va "A" ])
                [ Atom.make "p" [ va "A"; Term.Const v ] ]
            in
            check Alcotest.(list bool) (label ^ ": direct kernel") expected
              (Array.to_list
                 (Algebra.semijoin_batch store ~patterns:(patterns_of clause)
                    ~eids:[| 0; 1 |]));
            let vb, vs = both cov clause in
            check Alcotest.(list bool) (label ^ ": batching on") expected vb;
            check Alcotest.(list bool) (label ^ ": batching off") expected vs)
          [
            ("p(X,5)", Value.int 5, [ true; false ]);
            ("p(X,\"5\")", Value.str "5", [ false; true ]);
          ]);
  ]

(* ---------------- exact past the step budget ----------------------- *)

let budget_suite =
  [
    tc "a zero step budget changes no answer: vector and covers == kernel"
      (fun () ->
        let params = Bottom.default_params in
        let pos = family_ex.Examples.pos in
        let n = Array.length pos in
        let cands = candidates family_inst params pos 3 in
        let clauses = cands @ List.filter_map Planner.close_cycle cands in
        let exact = Coverage.build ~params family_inst pos in
        Coverage.set_cache exact false;
        Coverage.set_batch exact false;
        let zero = Coverage.build ~params ~max_steps:0 family_inst pos in
        Coverage.set_cache zero false;
        Coverage.set_batch zero false;
        let store = Option.get (Coverage.store exact) in
        let eids = Array.init n Fun.id in
        let f0 = Obs.Counter.value Coverage.c_budget_fallbacks in
        List.iteri
          (fun i clause ->
            let label = Fmt.str "clause %d" i in
            let budgeted = Array.to_list (Coverage.vector exact clause) in
            (* the kernel on a whole bottom clause (~58 literals) builds
               bags of several GB, so only the short prefixes and their
               closures are checked against it directly *)
            if List.length clause.Clause.body <= 9 then
              check Alcotest.(list bool) (label ^ ": default budget == kernel")
                (Array.to_list
                   (Algebra.semijoin_batch store
                      ~patterns:(patterns_of clause) ~eids))
                budgeted;
            check Alcotest.(list bool) (label ^ ": vector, zero budget")
              budgeted
              (Array.to_list (Coverage.vector zero clause));
            check Alcotest.(list bool) (label ^ ": covers, zero budget")
              budgeted
              (List.init n (Coverage.covers zero clause)))
          clauses;
        check Alcotest.bool "budget fallbacks counted" true
          (Obs.Counter.value Coverage.c_budget_fallbacks > f0));
  ]

(* ---------------- kernel operands owned by the scan memo ---------- *)

(* grandparent(A,B) :- parent(A,C), parent(C,D), parent(D,E),
   parent(F,C). Every body literal reads one memoized scan of parent/2.
   The decomposition hangs the head under parent(A,C), which hangs
   under the root parent(C,D) together with the leaves parent(D,E) and
   parent(F,C). So the scan's key set on its second column serves the
   leaf parent(F,C) from the memo entry, while parent(A,C), filtered
   by the head first, must key C on its own rows. *)
let shared_scan_clause =
  Clause.make
    (Atom.make "grandparent" [ va "A"; va "B" ])
    [
      Atom.make "parent" [ va "A"; va "C" ];
      Atom.make "parent" [ va "C"; va "D" ];
      Atom.make "parent" [ va "D"; va "E" ];
      Atom.make "parent" [ va "F"; va "C" ];
    ]

let operand_suite =
  [
    tc "kernel operands cached per memoized scan stay exact across store \
        mutations"
      (fun () ->
        let params = Bottom.default_params in
        let pos = family_ex.Examples.pos in
        let n = Array.length pos in
        let cov = Coverage.build ~params family_inst pos in
        let store = Option.get (Coverage.store cov) in
        let prefixes =
          List.filter
            (fun c -> Clause.length c <= 8)
            (candidates family_inst params pos 3)
        in
        let clauses =
          (shared_scan_clause :: prefixes)
          @ List.filter_map Planner.close_cycle prefixes
        in
        (* the bag tree the clause is meant to have, on pattern indexes:
           the head is 0, the body 1-4 in order *)
        let d =
          Hypergraph.decompose
            (List.map Algebra.pattern_vars (patterns_of shared_scan_clause))
        in
        let edge b = List.hd d.Hypergraph.bags.(b) in
        check
          Alcotest.(list (pair int (option int)))
          "the shared scan's bag tree"
          [ (0, Some 1); (1, Some 2); (3, Some 2); (4, Some 2); (2, None) ]
          (List.map (fun (b, p) -> (edge b, Option.map edge p)) d.Hypergraph.forest);
        (* the store's facts of every example, as the ground clause
           per-example subsumption tests against *)
        let model = Array.copy cov.Coverage.bottoms in
        let row i (a : Atom.t) = Array.append [| Value.int i |] (Atom.to_tuple a) in
        let add i (a : Atom.t) =
          if Columnar.add store a.Atom.rel (row i a) then
            model.(i) <-
              { (model.(i)) with Clause.body = model.(i).Clause.body @ [ a ] }
        in
        let remove i (a : Atom.t) =
          check Alcotest.bool "stored fact removed" true
            (Columnar.remove store a.Atom.rel (row i a));
          model.(i) <-
            {
              (model.(i)) with
              Clause.body =
                List.filter (fun b -> not (Atom.equal a b)) model.(i).Clause.body;
            }
        in
        let eids = Array.init n Fun.id in
        let agree step =
          let targets = Array.map Subsume.prepare model in
          List.iteri
            (fun k clause ->
              let pattern = Subsume.compile clause in
              check
                Alcotest.(array bool)
                (Fmt.str "step %d, clause %d: %s" step k (Clause.to_string clause))
                (Array.map
                   (fun p ->
                     Subsume.subsumes_compiled ~max_steps:max_int pattern p
                     = Some true)
                   targets)
                (Algebra.semijoin_batch store ~patterns:(patterns_of clause) ~eids))
            clauses
        in
        (* the head's first argument of example [i] *)
        let a_of i = (Atom.to_tuple pos.(i)).(0) in
        let parent x y = Atom.of_tuple "parent" (Tuple.of_list [ x; y ]) in
        let is_parent_of x (b : Atom.t) =
          String.equal b.Atom.rel "parent" && Value.equal (Atom.to_tuple b).(0) x
        in
        let rng = Random.State.make [| 28 |] in
        let cut = ref None in
        let built0 = Obs.Counter.value Algebra.c_operands_built in
        let reused0 = Obs.Counter.value Algebra.c_operands_reused in
        agree 0;
        for step = 1 to 12 do
          let i = Random.State.int rng n in
          (match step mod 4 with
          | 1 ->
              (* cut: example i's A loses its children *)
              let gone = List.filter (is_parent_of (a_of i)) model.(i).Clause.body in
              List.iter (remove i) gone;
              cut := Some (i, gone)
          | 2 ->
              (* graft: example i gets example j's facts, j's A renamed
                 to i's *)
              let j = Random.State.int rng n in
              let rename v = if Value.equal v (a_of j) then a_of i else v in
              List.iter
                (fun (b : Atom.t) ->
                  add i (Atom.of_tuple b.Atom.rel (Array.map rename (Atom.to_tuple b))))
                model.(j).Clause.body
          | 3 ->
              (* three generations below i's A, through values the
                 dictionary has never seen: the packing width grows *)
              let fresh k = Value.str (Fmt.str "fresh-%d-%d" step k) in
              add i (parent (a_of i) (fresh 1));
              add i (parent (fresh 1) (fresh 2));
              add i (parent (fresh 2) (fresh 3))
          | _ -> (
              (* undo the last cut *)
              match !cut with
              | Some (i', gone) -> List.iter (add i') gone
              | None -> ()));
          agree step
        done;
        check Alcotest.bool "operands built" true
          (Obs.Counter.value Algebra.c_operands_built > built0);
        check Alcotest.bool "operands reused" true
          (Obs.Counter.value Algebra.c_operands_reused > reused0));
  ]

let suite =
  family_suite @ random_suite @ forest_suite @ kernel_cyclic_suite
  @ edge_suite @ mutation_suite @ armg_suite @ alike_suite @ budget_suite
  @ operand_suite
