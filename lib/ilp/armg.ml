(** Asymmetric relative minimal generalization (Algorithm 3).

    Given an ordered clause [C] (typically a bottom clause ⊥e) and a
    positive example [e'], repeatedly locate and remove the {e
    blocking atom} — the first body literal [Li] such that the prefix
    [T ← L1..Li] fails to cover [e'] — then drop literals that are no
    longer head-connected, until the clause covers [e'].

    Prefix coverage is antitone in the prefix length (adding literals
    only specializes), so the blocking atom is found by binary search
    with O(log n) coverage tests instead of a linear scan. Each test
    goes through {!Coverage.covers}, whose {!Planner} picks the
    cheaper of the semi-join kernel and subsumption per prefix.

    The search is warm-started. It ends with [prefix(b)] covering,
    where [b] is the blocking atom's index. The [repair] hook and
    {!Clause.head_connected} then only drop literals, so the leading
    literals of the new body that survive from the old [[0,b)] form a
    sub-body of that covering prefix, and they still cover. The next
    search starts from their count instead of 0; by antitonicity it
    finds the same blocking atom with fewer tests. When every survivor
    comes from [[0,b)], the whole clause covers and the loop ends
    without a test. Survivors are matched by physical identity, in
    order: a hook that rebuilds or reorders literals only shortens the
    warm start, down to 0.

    The [repair] hook runs right after each blocking-atom removal;
    Castor passes the IND-enforcement step of Section 7.2.1 and plain
    ProGolem passes the identity. *)

open Castor_logic
module Obs = Castor_obs.Obs

let span_generalize = Obs.Span.create "ilp.armg.generalize"

let prefix_clause (c : Clause.t) k =
  { c with Clause.body = List.filteri (fun i _ -> i < k) c.Clause.body }

(* Length of the longest prefix of [body] whose literals occur, in
   order and physically, in [old]. *)
let rec surviving_prefix old body =
  match (old, body) with
  | o :: old', b :: body' ->
      if o == b then 1 + surviving_prefix old' body'
      else surviving_prefix old' body
  | [], _ | _, [] -> 0

(** [generalize ?repair cov c i] computes armg(C, e_i) where [e_i] is
    the [i]-th example of [cov]. Returns [None] when even the bare
    head fails to cover [e_i] (then no generalization of [C] along
    this example exists). [repair] must keep the head; the warm start
    relies on it. *)
let generalize ?(repair = fun c -> c) (cov : Coverage.t) (c : Clause.t) i =
  Obs.Span.with_span span_generalize @@ fun () ->
  Obs.Counter.incr Stats.c_armg_calls;
  let covers_prefix c k = Coverage.covers cov (prefix_clause c k) i in
  if not (covers_prefix c 0) then None
  else
    let current = ref c in
    (* length of a prefix of [!current] known to cover *)
    let covered = ref 0 in
    let continue = ref true in
    while !continue do
      let n = Clause.length !current in
      if !covered = n || covers_prefix !current n then continue := false
      else begin
        (* least k in [covered+1..n] with prefix(k) failing *)
        let lo = ref !covered and hi = ref n in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if covers_prefix !current mid then lo := mid else hi := mid
        done;
        let blocking = !hi - 1 in
        Obs.Counter.incr Stats.c_blocking_removals;
        let old = !current.Clause.body in
        let body = List.filteri (fun j _ -> j <> blocking) old in
        current := Clause.head_connected (repair { !current with Clause.body = body });
        covered :=
          surviving_prefix (List.filteri (fun j _ -> j < blocking) old)
            !current.Clause.body
      end
    done;
    Some !current
