(* Golden learned definitions: Castor and ProGolem at their default
   configurations, trained on all examples of every schema variant of
   the uwcse, hiv, imdb and family datasets. [dune runtest] diffs this
   program's output against golden_definitions.txt, so any change to a
   learned definition fails the suite; [dune promote] accepts a
   deliberate one. *)

open Castor_datasets
open Castor_eval

let datasets =
  [
    ("uwcse", fun () -> Uwcse.generate ());
    ("hiv", fun () -> Hiv.generate ());
    ("imdb", fun () -> Imdb.generate ());
    ("family", fun () -> Family.generate ());
  ]

let learners = [ "castor"; "progolem" ]

let () =
  List.iter
    (fun (dname, generate) ->
      let ds = generate () in
      List.iter
        (fun (vname, _) ->
          let prep = Experiment.prepare ds vname in
          List.iter
            (fun lname ->
              let def = Experiment.train_full prep (Algos.of_name lname) in
              Fmt.pr "== %s/%s %s ==@.%s@.@." dname vname lname
                (Castor_logic.Clause.definition_to_string def))
            learners)
        ds.Dataset.variants)
    datasets
