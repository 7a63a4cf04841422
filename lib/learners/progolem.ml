(** ProGolem (Muggleton, Santos, Tamaddoni-Nezhad 2009) — the
    armg-based bottom-up learner of Section 6.4.

    LearnClause builds the (variabilized) bottom clause of a seed
    positive example and beam-searches over repeated applications of
    the asymmetric relative minimal generalization operator
    (Algorithm 3), scored by coverage [p − n]. The winning clause is
    negative-reduced. Both armg and the plain reduction are schema
    dependent (Example 6.5 / Theorem 6.6); Castor replaces them with
    IND-aware versions. *)

open Castor_relational
open Castor_logic
open Castor_ilp
module Obs = Castor_obs.Obs

let span_learn = Obs.Span.create "learner.progolem"

type params = {
  sample : int;  (** K — examples drawn per beam iteration *)
  beam : int;  (** N — beam width *)
  min_precision : float;
  minpos : int;
  max_clauses : int;
  require_safe : bool;
}

let default_params =
  {
    sample = 5;
    beam = 2;
    min_precision = 0.67;
    minpos = 2;
    max_clauses = 30;
    require_safe = false;
  }

type cand = { clause : Clause.t; pos_vec : bool array; neg_vec : bool array; score : int }

let eval (p : Problem.t) ?parent clause =
  let assume_pos, assume_neg =
    match parent with
    | Some c -> (Some c.pos_vec, Some c.neg_vec)
    | None -> (None, None)
  in
  let pos_vec = Coverage.vector ?assume:assume_pos p.Problem.pos_cov clause in
  let neg_vec = Coverage.vector ?assume:assume_neg p.Problem.neg_cov clause in
  let score =
    Scoring.coverage
      { Scoring.pos_covered = Coverage.count pos_vec; neg_covered = Coverage.count neg_vec }
  in
  { clause; pos_vec; neg_vec; score }

let uncovered_indices uncovered =
  let out = ref [] in
  Array.iteri (fun i b -> if b then out := i :: !out) uncovered;
  Array.of_list (List.rev !out)

(** One LearnClause call, shared with Castor (which passes its own
    [bottom] builder, [armg_repair] and [reduce] hooks). If the seed
    example yields no acceptable clause, the next uncovered positives
    are tried as seeds (up to [seed_tries]), as real bottom-up systems
    do — a seed whose neighborhood carries no signal should not end
    the covering loop. *)
let rec learn_clause_generic ?(seed_tries = 8) ~(bottom : Atom.t -> Clause.t)
    ~(armg_repair : Clause.t -> Clause.t) ~(reduce : Clause.t -> Clause.t)
    (prm : params) (p : Problem.t) uncovered =
  let idxs = uncovered_indices uncovered in
  if Array.length idxs = 0 || seed_tries <= 0 then None
  else begin
    let seed_idx = idxs.(0) in
    let e = p.Problem.pos_cov.Coverage.examples.(seed_idx) in
    (* The bottom clause itself rarely covers anything beyond its
       seed; scoring it against every example is the single most
       expensive test of the whole search, so the root is credited
       with its seed only. Children are evaluated for real (their
       coverage grows monotonically from the root's, so the seed bit
       may be assumed). *)
    let root =
      let pos_vec = Array.make (Coverage.length p.Problem.pos_cov) false in
      pos_vec.(seed_idx) <- true;
      let neg_vec = Array.make (Coverage.length p.Problem.neg_cov) false in
      { clause = bottom e; pos_vec; neg_vec; score = 1 }
    in
    let beam = ref [ root ] in
    let best = ref root in
    let continue = ref true in
    while !continue do
      let sample =
        let n = Array.length idxs in
        List.init prm.sample (fun _ -> idxs.(Random.State.int p.Problem.rng n))
        |> List.sort_uniq compare
      in
      let next = ref [] in
      List.iter
        (fun c ->
          List.iter
            (fun i ->
              match Armg.generalize ~repair:armg_repair p.Problem.pos_cov c.clause i with
              | None -> ()
              | Some g ->
                  if g.Clause.body <> [] then begin
                    let cand = eval p ~parent:c g in
                    if
                      cand.score > !best.score
                      && ((not prm.require_safe) || Clause.is_safe cand.clause)
                    then next := cand :: !next
                  end)
            sample)
        !beam;
      match List.sort (fun a b -> compare b.score a.score) !next with
      | [] -> continue := false
      | sorted ->
          let rec take k = function
            | [] -> []
            | _ when k = 0 -> []
            | x :: tl -> x :: take (k - 1) tl
          in
          beam := take prm.beam sorted;
          best := List.hd !beam
    done;
    let reduced = reduce !best.clause in
    let final = if reduced.Clause.body = [] then !best.clause else reduced in
    let cand = eval p final in
    let stats =
      {
        Scoring.pos_covered = Coverage.count cand.pos_vec;
        neg_covered = Coverage.count cand.neg_vec;
      }
    in
    if
      Scoring.acceptable ~min_precision:prm.min_precision ~minpos:prm.minpos stats
      && ((not prm.require_safe) || Clause.is_safe final)
    then Some (final, cand.pos_vec)
    else begin
      (* fall back to the unreduced best clause if reduction overshot *)
      let stats' =
        {
          Scoring.pos_covered = Coverage.count !best.pos_vec;
          neg_covered = Coverage.count !best.neg_vec;
        }
      in
      if
        Scoring.acceptable ~min_precision:prm.min_precision ~minpos:prm.minpos
          stats'
        && ((not prm.require_safe) || Clause.is_safe !best.clause)
      then Some (!best.clause, !best.pos_vec)
      else begin
        (* this seed carries no learnable signal: retry from the next
           uncovered positive *)
        let uncovered' = Array.copy uncovered in
        uncovered'.(seed_idx) <- false;
        learn_clause_generic ~seed_tries:(seed_tries - 1) ~bottom ~armg_repair
          ~reduce prm p uncovered'
      end
    end
  end

let learn_clause (prm : params) (p : Problem.t) uncovered =
  let bottom e =
    Bottom.bottom_clause ~params:p.Problem.bottom_params p.Problem.instance e
  in
  learn_clause_generic ~bottom ~armg_repair:Fun.id
    ~reduce:(Negreduce.reduce ~require_safe:prm.require_safe p.Problem.neg_cov)
    prm p uncovered

(** [learn ?params p] runs ProGolem's covering loop. *)
let learn ?(params = default_params) (p : Problem.t) =
  Obs.Span.with_span span_learn @@ fun () ->
  let outcome =
    Covering.run
      ~target:p.Problem.target.Schema.rname
      ~learn_clause:(fun uncovered -> learn_clause params p uncovered)
      ~max_clauses:params.max_clauses
      (Examples.n_pos p.Problem.train)
  in
  outcome.Covering.definition

(* ------------------------- unified API --------------------------- *)

let params_of_config (c : Learner.config) =
  {
    sample = c.Learner.sample;
    beam = c.Learner.beam;
    min_precision = c.Learner.min_precision;
    minpos = c.Learner.minpos;
    max_clauses = c.Learner.max_clauses;
    require_safe = c.Learner.safe;
  }

(** ProGolem behind the unified {!Learner.S} surface. *)
module Unified : Learner.S =
  (val Learner.make ~name:"progolem"
         (fun c p -> learn ~params:(params_of_config c) p))

let () = Learner.register (module Unified)
