(** Plain negative reduction, as used by Golem and ProGolem
    (Sections 6.3-6.4): a body literal is non-essential when removing
    it does not increase the number of covered negative examples;
    non-essential literals are dropped, scanning from the end of the
    clause. Castor replaces this with the inclusion-class-aware
    Algorithm 5 (see {!Castor_core.Reduction}).

    The per-candidate counts come from {!Coverage.covered_count},
    i.e. full coverage vectors whose evaluation strategy the
    {!Planner} chooses per clause from the example store's
    statistics. *)

open Castor_logic
module Obs = Castor_obs.Obs

let span_reduce = Obs.Span.create "ilp.negreduce.reduce"

(** [reduce ?require_safe neg_cov c] drops non-essential literals.
    With [require_safe], a removal that would unbind a head variable
    is skipped (Section 7.3). *)
let reduce ?(require_safe = false) (neg_cov : Coverage.t) (c : Clause.t) =
  Obs.Span.with_span span_reduce @@ fun () ->
  let baseline = Coverage.covered_count neg_cov c in
  let current = ref c in
  let i = ref (Clause.length c - 1) in
  while !i >= 0 do
    let body = Array.of_list !current.Clause.body in
    if !i < Array.length body then begin
      let candidate =
        Clause.head_connected
          {
            !current with
            Clause.body = Array.to_list body |> List.filteri (fun j _ -> j <> !i);
          }
      in
      let ok_safe = (not require_safe) || Clause.is_safe candidate in
      if
        ok_safe
        && Clause.length candidate < Clause.length !current
        && Coverage.covered_count neg_cov candidate <= baseline
      then current := candidate
    end;
    decr i
  done;
  !current
