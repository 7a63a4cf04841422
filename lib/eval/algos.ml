(** Standard algorithm configurations used across the experiments,
    mirroring Section 9.1.2: FOIL, Aleph-FOIL (greedy Aleph),
    Aleph-Progol (default Aleph), ProGolem, Golem and Castor, all with
    minimum precision 0.67 and minpos 2. *)

open Castor_learners
open Castor_core
open Experiment

(** [of_name ?gate ?domains name] resolves a learner through the
    {!Castor_learners.Learner} registry — the single code path the CLI
    and drivers use instead of pattern-matching names. The learner
    runs with its own [default_config], with coverage tests fanned out
    over [domains].

    @raise Learner.Unknown_learner on unregistered names. *)
let of_name ?gate ?(domains = 1) name =
  let module L = (val Learner.find name) in
  let config = { L.default_config with Learner.domains } in
  {
    algo_name = L.name;
    run = (fun p -> (L.learn ?gate ~config p).Learner.Report.definition);
  }

(* ---- preset constructors (pre-registry compatibility surface) ---- *)

let foil ?(clauselength = 6) () =
  {
    algo_name = "FOIL";
    run =
      (fun p ->
        Foil.learn ~params:{ Foil.default_params with clauselength } p);
  }

let aleph_foil ?(clauselength = 10) () =
  {
    algo_name = Printf.sprintf "Aleph-FOIL(cl=%d)" clauselength;
    run = (fun p -> Progol.learn ~params:(Progol.aleph_foil ~clauselength) p);
  }

let aleph_progol ?(clauselength = 10) () =
  {
    algo_name = Printf.sprintf "Aleph-Progol(cl=%d)" clauselength;
    run = (fun p -> Progol.learn ~params:(Progol.aleph_progol ~clauselength) p);
  }

let progolem ?(sample = 5) ?(beam = 2) () =
  {
    algo_name = "ProGolem";
    run =
      (fun p -> Progolem.learn ~params:{ Progolem.default_params with sample; beam } p);
  }

let golem ?(sample = 8) () =
  {
    algo_name = "Golem";
    run = (fun p -> Golem.learn ~params:{ Golem.default_params with sample } p);
  }

let castor ?(params = Castor.default_params) () =
  { algo_name = "Castor"; run = (fun p -> Castor.learn ~params p) }

(** Castor in general-IND mode (subset INDs used directly, no
    equality pre-check) — the Table 12 configuration. *)
let castor_subset () =
  {
    algo_name = "Castor(subset-INDs)";
    run =
      (fun p ->
        Castor.learn ~params:{ Castor.default_params with mode = `Subset_too } p);
  }
