(** Unified learner API: shared config, module type, registry. See the
    interface for the design rationale. *)

open Castor_logic
open Castor_ilp
module Obs = Castor_obs.Obs

type config = {
  clauselength : int;
  min_precision : float;
  minpos : int;
  max_clauses : int;
  sample : int;
  beam : int;
  safe : bool;
  domains : int;
}

let default_config =
  {
    clauselength = 6;
    min_precision = 0.67;
    minpos = 2;
    max_clauses = 30;
    sample = 5;
    beam = 2;
    safe = false;
    domains = 1;
  }

module Report = struct
  type t = { learner : string; definition : Clause.definition; seconds : float }

  let pp ppf r =
    Fmt.pf ppf "@[<v>%s learned %d clause(s) in %.2fs:@,%a@]" r.learner
      (List.length r.definition.Clause.clauses)
      r.seconds Clause.pp_definition r.definition
end

module type S = sig
  val name : string

  val default_config : config

  val learn : ?gate:Problem.gate -> ?config:config -> Problem.t -> Report.t
end

exception Unknown_learner of string

let () =
  Printexc.register_printer (function
    | Unknown_learner n -> Some (Fmt.str "Unknown_learner %S" n)
    | _ -> None)

let registry : (string, (module S)) Hashtbl.t = Hashtbl.create 16

let canonical = String.lowercase_ascii

let register (module L : S) = Hashtbl.replace registry (canonical L.name) (module L : S)

let find_opt name = Hashtbl.find_opt registry (canonical name)

let find name =
  match find_opt name with
  | Some l -> l
  | None -> raise (Unknown_learner name)

let names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare

let learn ~name ?gate ?config p =
  let module L = (val find name) in
  L.learn ?gate ?config p

let c_runs = Obs.Counter.create "learners.api.runs"

(* The shared run protocol every [make]-built learner follows: optional
   re-analysis gate, coverage fan-out over the configured domain count
   (restored on exit, including on exceptions), wall-clock timing. *)
let make ~name ?(defaults = default_config) run : (module S) =
  (module struct
    let name = name

    let default_config = defaults

    let learn ?gate ?(config = defaults) (p : Problem.t) =
      Obs.Counter.incr c_runs;
      (match gate with Some g -> Problem.recheck ~gate:g p | None -> ());
      Coverage.set_domains p.Problem.pos_cov config.domains;
      Coverage.set_domains p.Problem.neg_cov config.domains;
      Fun.protect
        ~finally:(fun () ->
          Coverage.set_domains p.Problem.pos_cov 1;
          Coverage.set_domains p.Problem.neg_cov 1)
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let definition = run config p in
      { Report.learner = name; definition; seconds = Unix.gettimeofday () -. t0 }
  end)
