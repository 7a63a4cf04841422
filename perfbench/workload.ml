(* Helpers shared by the benchmark workloads: candidate-clause
   construction, the monotonic clock and order statistics. *)

open Castor_logic

let take k l = List.filteri (fun i _ -> i < k) l

(** [prefixes bottoms ~n ~lengths] variabilizes the first [n] ground
    saturations and cuts each body at every length in [lengths]: the
    clause shapes the generalization search walks through. *)
let prefixes (bottoms : Clause.t array) ~n ~lengths =
  List.concat_map
    (fun i ->
      let bc, _ = Clause.variabilize bottoms.(i) in
      List.map (fun k -> Clause.make bc.Clause.head (take k bc.Clause.body)) lengths)
    (List.init (min n (Array.length bottoms)) Fun.id)

(** The cyclic closures ({!Castor_ilp.Planner.close_cycle}) of those
    clauses that have one. *)
let closures clauses = List.filter_map Castor_ilp.Planner.close_cycle clauses

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(** [timed f] runs [f] and returns its result with the elapsed
    monotonic seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)

(** [quantile xs q] is the [q]-quantile of [xs] by linear
    interpolation between closest ranks (NaN when [xs] is empty). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let r = q *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
