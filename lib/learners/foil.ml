(** FOIL (Quinlan 1990) — the classic greedy top-down learner
    analyzed in Section 5.

    Each clause starts from the most general head and repeatedly adds
    the candidate literal with the best information gain, until the
    clause covers no negatives or the [clauselength] bound is hit.
    Candidate literals mention at least one variable already in the
    clause (typed by attribute domains); positions whose domain has a
    constant pool may also be specialized to a constant — which is
    exactly what lets FOIL pick [yearsInProgram(x, 7)] in Example 1.1
    and what makes its hypothesis space schema dependent
    (Theorem 5.1). *)

open Castor_relational
open Castor_logic
open Castor_ilp
module Obs = Castor_obs.Obs

let span_learn = Obs.Span.create "learner.foil"

type params = {
  clauselength : int;  (** max literals per clause, head excluded *)
  min_precision : float;  (** the paper's aaccur = 0.67 *)
  minpos : int;
  max_candidates : int;  (** cap on candidate literals per step *)
  max_clauses : int;
}

let default_params =
  {
    clauselength = 6;
    min_precision = 0.67;
    minpos = 2;
    max_candidates = 4000;
    max_clauses = 30;
  }

(* Typed variables available in the clause so far, in order. *)
let clause_vars (h, hd) bs =
  let add acc (a : Atom.t) domains =
    List.fold_left2
      (fun acc t d ->
        match t with
        | Term.Var v when not (List.mem_assoc v acc) -> acc @ [ (v, d) ]
        | _ -> acc)
      acc
      (Array.to_list a.Atom.args)
      domains
  in
  List.fold_left (fun acc (a, ds) -> add acc a ds) (add [] h hd) bs

(** Enumerate candidate literals for the next refinement step. *)
let candidates schema const_pool vars fresh_base max_candidates =
  let out = ref [] in
  let count = ref 0 in
  let fresh_id = ref 0 in
  let push a =
    if !count < max_candidates then begin
      out := a :: !out;
      incr count
    end
  in
  List.iter
    (fun (r : Schema.relation) ->
      (* argument options per position: same-domain vars, or fresh *)
      let options =
        List.map
          (fun (at : Schema.attribute) ->
            let same = List.filter (fun (_, d) -> String.equal d at.Schema.domain) vars in
            (at, List.map (fun (v, _) -> Term.Var v) same))
          r.Schema.attrs
      in
      let rec build acc used_existing = function
        | [] ->
            if used_existing then begin
              let args = List.rev acc in
              push (Atom.make r.Schema.rname args);
              (* constant variants: replace each fresh-var position
                 whose domain has a pool by each pool constant *)
              List.iteri
                (fun i t ->
                  match t with
                  | Term.Var v when String.length v > 1 && v.[0] = '_' -> (
                      let at = List.nth r.Schema.attrs i in
                      match List.assoc_opt at.Schema.domain const_pool with
                      | Some consts ->
                          List.iter
                            (fun c ->
                              push
                                (Atom.make r.Schema.rname
                                   (List.mapi
                                      (fun j t' -> if j = i then Term.Const c else t')
                                      args)))
                            consts
                      | None -> ())
                  | _ -> ())
                args
            end
        | (_, opts) :: rest ->
            List.iter (fun t -> build (t :: acc) true rest) opts;
            let v = Printf.sprintf "_%s%d" fresh_base !fresh_id in
            incr fresh_id;
            build (Term.Var v :: acc) used_existing rest
      in
      build [] false options)
    schema.Schema.relations;
  List.rev !out

let learn_clause (prm : params) (p : Problem.t) uncovered =
  let schema = Instance.schema p.Problem.instance in
  let head = Problem.head p in
  let head_doms = Problem.head_domains p in
  let domains_of rel = Schema.domains schema rel in
  let rec grow body pos_vec neg_vec step =
    let pos_n = Coverage.count pos_vec and neg_n = Coverage.count neg_vec in
    if neg_n = 0 || step >= prm.clauselength then (body, pos_vec, neg_vec)
    else begin
      let vars =
        clause_vars (head, head_doms)
          (List.map (fun (a : Atom.t) -> (a, domains_of a.Atom.rel)) body)
      in
      let cands =
        candidates schema p.Problem.const_pool vars
          (Printf.sprintf "s%d" step)
          prm.max_candidates
      in
      let before = { Scoring.pos_covered = pos_n; neg_covered = neg_n } in
      let best = ref None in
      (* fallback when no candidate has information gain: the most
         precise strict reduction of negative coverage — FOIL keeps
         specializing while the clause covers negatives *)
      let fallback = ref None in
      List.iter
        (fun lit ->
          let body' = body @ [ lit ] in
          let c = Clause.make head body' in
          let pv = Coverage.vector ~within:pos_vec p.Problem.pos_cov c in
          let p1 = Coverage.count pv in
          if p1 > 0 then begin
            let nv = Coverage.vector ~within:neg_vec p.Problem.neg_cov c in
            let after = { Scoring.pos_covered = p1; neg_covered = Coverage.count nv } in
            let gain = Scoring.foil_gain ~before ~after in
            (match !best with
            | Some (bg, ba, _, _, _) when bg > gain || (bg = gain && ba.Scoring.pos_covered >= p1)
              -> ()
            | _ -> if gain > 0.001 then best := Some (gain, after, [ lit ], pv, nv));
            if p1 >= prm.minpos && after.Scoring.neg_covered < neg_n then begin
              let prec = Scoring.precision after in
              match !fallback with
              | Some (bp, ba, _, _, _)
                when bp > prec
                     || (bp = prec && ba.Scoring.pos_covered >= p1) -> ()
              | _ -> fallback := Some (prec, after, [ lit ], pv, nv)
            end
          end)
        cands;
      if !best = None then best := !fallback;
      (* Plateau: no single literal gains or cuts negatives. FOIL's
         determinate-literal mechanism is approximated by a bounded
         two-literal lookahead — add a variable-introducing literal
         together with one consumer of its fresh variables (the
         co-publication pattern needs exactly this). *)
      if !best = None && step + 2 <= prm.clauselength then begin
        let budget = ref 400 in
        let consider lit1 lit2 =
          if !budget > 0 then begin
            decr budget;
            let c = Clause.make head (body @ [ lit1; lit2 ]) in
            let pv = Coverage.vector ~within:pos_vec p.Problem.pos_cov c in
            let p1 = Coverage.count pv in
            if p1 >= prm.minpos then begin
              let nv = Coverage.vector ~within:neg_vec p.Problem.neg_cov c in
              let after =
                { Scoring.pos_covered = p1; neg_covered = Coverage.count nv }
              in
              if after.Scoring.neg_covered < neg_n then begin
                let gain = Scoring.foil_gain ~before ~after in
                match !best with
                | Some (bg, _, _, _, _) when bg >= gain -> ()
                | _ -> best := Some (gain, after, [ lit1; lit2 ], pv, nv)
              end
            end
          end
        in
        List.iter
          (fun lit1 ->
            let fresh1 =
              List.filter (fun v -> String.length v > 0 && v.[0] = '_') (Atom.vars lit1)
            in
            if fresh1 <> [] then begin
              let vars1 =
                vars
                @ List.filter_map
                    (fun v ->
                      let rec pos_of i = function
                        | [] -> None
                        | Term.Var v' :: _ when String.equal v v' -> Some i
                        | _ :: tl -> pos_of (i + 1) tl
                      in
                      match pos_of 0 (Array.to_list lit1.Atom.args) with
                      | Some i ->
                          let doms = domains_of lit1.Atom.rel in
                          Some (v, List.nth doms i)
                      | None -> None)
                    fresh1
              in
              let cands2 =
                candidates schema p.Problem.const_pool vars1
                  (Printf.sprintf "t%d" step)
                  200
              in
              List.iter
                (fun lit2 ->
                  if List.exists (fun v -> List.mem v fresh1) (Atom.vars lit2) then
                    consider lit1 lit2)
                cands2
            end)
          cands
      end;
      match !best with
      | None -> (body, pos_vec, neg_vec)
      | Some (_, _, lits, pv, nv) ->
          grow (body @ lits) pv nv (step + List.length lits)
    end
  in
  let pos_vec0 = uncovered in
  let neg_vec0 = Array.make (Coverage.length p.Problem.neg_cov) true in
  let body, pos_vec, neg_vec = grow [] pos_vec0 neg_vec0 0 in
  let stats =
    {
      Scoring.pos_covered = Coverage.count pos_vec;
      neg_covered = Coverage.count neg_vec;
    }
  in
  if body = [] then None
  else if not (Scoring.acceptable ~min_precision:prm.min_precision ~minpos:prm.minpos stats)
  then None
  else
    let clause = Clause.make head body in
    (* full positive coverage (not restricted to uncovered) for the
       covering loop's bookkeeping *)
    let full_pos = Coverage.vector p.Problem.pos_cov clause in
    Some (clause, full_pos)

(** [learn ?params p] runs FOIL's covering loop. *)
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
    default_params with
    clauselength = c.Learner.clauselength;
    min_precision = c.Learner.min_precision;
    minpos = c.Learner.minpos;
    max_clauses = c.Learner.max_clauses;
  }

(** FOIL behind the unified {!Learner.S} surface. *)
module Unified : Learner.S =
  (val Learner.make ~name:"foil" (fun c p -> learn ~params:(params_of_config c) p))

let () = Learner.register (module Unified)
