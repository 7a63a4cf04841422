(* castor — command-line interface to the library.

   Subcommands:
     learn      train a learner on a dataset variant and report metrics
     schemas    print a dataset's schema variants, constraints and stats
     transform  demonstrate a composition/decomposition round trip
     oracle     run the A2 query-based learner against a random target *)

open Cmdliner
open Castor_relational
module Clause = Castor_logic.Clause
open Castor_datasets
open Castor_eval

let datasets =
  [
    ("uwcse", fun () -> Uwcse.generate ());
    ("hiv", fun () -> Hiv.generate ());
    ("hiv-large", fun () -> Hiv.generate ~config:Hiv.large_config ());
    ("imdb", fun () -> Imdb.generate ());
    ("family", fun () -> Family.generate ());
  ]

(* names reach here only through [dataset_arg], which rejects unknown
   ones as a usage error *)
let dataset_of_name name = (List.assoc name datasets) ()

module Learner = Castor_learners.Learner

(* ------------------- shared flag surface ------------------------ *)
(* One parser per flag, shared by every subcommand that accepts it,
   so `-d`, `-a`, `--json`, `-o` and `--seed` spell and behave the
   same everywhere. Subcommands that are deterministic still accept
   `--seed` (and ignore it) so sweep scripts can pass a uniform
   argument vector. *)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ]
        ~doc:"Also write the (JSON) report to $(docv)." ~docv:"FILE")

let seed_arg =
  Arg.(
    value & opt int 17
    & info [ "seed" ]
        ~doc:
          "Random seed for every seeded stage (fold shuffles, variant \
           generation, sampling). Deterministic subcommands accept and \
           ignore it, so scripted sweeps can pass one uniform flag set.")

(* an unknown learner name is a usage error (exit 124) listing the
   registered ones, not an uncaught exception *)
let algo_conv =
  let parse s =
    match Learner.find_opt s with
    | Some _ -> Ok s
    | None ->
        Error
          (`Msg
            ("unknown algorithm " ^ s ^ " (try "
            ^ String.concat "|" (Learner.names ())
            ^ ")"))
  in
  Arg.conv (parse, Fmt.string)

let write_out out doc =
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc doc;
      output_char oc '\n';
      close_out oc)
    out

(* ---------------------------- learn ----------------------------- *)

let dataset_arg =
  Arg.(
    value
    & opt (enum (List.map (fun (name, _) -> (name, name)) datasets)) "uwcse"
    & info [ "d"; "dataset" ]
        ~doc:
          ("Dataset name: "
          ^ Arg.doc_alts (List.map fst datasets)
          ^ "."))

let variant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "schema" ] ~doc:"Schema variant (default: the base schema).")

let algo_arg =
  Arg.(value & opt algo_conv "castor" & info [ "a"; "algo" ] ~doc:"Learning algorithm.")

let folds_arg =
  Arg.(
    value & opt int 0
    & info [ "k"; "folds" ]
        ~doc:"Cross-validation folds; 0 trains on everything and reports training metrics.")

let learn_json ~algo ~dataset ~variant ~folds ~time_s (m : Metrics.t)
    (def : Clause.definition) =
  Printf.sprintf
    {|{"algo":%S,"dataset":%S,"variant":%S,"folds":%d,"precision":%.6f,"recall":%.6f,"time_s":%.3f,"clauses":%d}|}
    algo dataset variant folds m.Metrics.precision m.Metrics.recall time_s
    (List.length def.Clause.clauses)

let learn dataset variant algo folds json out seed =
  let ds = dataset_of_name dataset in
  let vname = Option.value ~default:(fst (List.hd ds.Dataset.variants)) variant in
  let a = Algos.of_name algo in
  let prep = Experiment.prepare ds vname in
  let m, def, time_s =
    if folds > 0 then begin
      let row = Experiment.crossval ~seed ~folds prep a in
      (row.Experiment.metrics, row.Experiment.definition, row.Experiment.time_s)
    end
    else begin
      let t0 = Unix.gettimeofday () in
      let def = Experiment.train_full ~seed prep a in
      let dt = Unix.gettimeofday () -. t0 in
      let n_pos = Castor_ilp.Coverage.length prep.Experiment.all_pos in
      let n_neg = Castor_ilp.Coverage.length prep.Experiment.all_neg in
      let m =
        Experiment.test_metrics prep def
          (Array.init n_pos Fun.id, Array.init n_neg Fun.id)
      in
      (m, def, dt)
    end
  in
  let doc =
    learn_json ~algo:a.Experiment.algo_name ~dataset ~variant:vname ~folds
      ~time_s m def
  in
  write_out out doc;
  if json then print_endline doc
  else begin
    if folds > 0 then
      Fmt.pr "%s on %s/%s (%d-fold CV):@." a.Experiment.algo_name dataset vname
        folds
    else
      Fmt.pr "%s on %s/%s (training set, %.2fs):@." a.Experiment.algo_name
        dataset vname time_s;
    Fmt.pr "  precision %.3f  recall %.3f@." m.Metrics.precision
      m.Metrics.recall;
    Fmt.pr "@.definition:@.%a@." Clause.pp_definition def
  end

let learn_cmd =
  Cmd.v
    (Cmd.info "learn" ~doc:"Learn a target relation definition over a schema variant.")
    Term.(
      const learn $ dataset_arg $ variant_arg $ algo_arg $ folds_arg
      $ json_arg $ out_arg $ seed_arg)

(* --------------------------- schemas ---------------------------- *)

let schemas dataset =
  let ds = dataset_of_name dataset in
  Fmt.pr "dataset %s: %d positive / %d negative examples of %s@." ds.Dataset.name
    (Array.length ds.Dataset.examples.Castor_ilp.Examples.pos)
    (Array.length ds.Dataset.examples.Castor_ilp.Examples.neg)
    ds.Dataset.target.Schema.rname;
  List.iter
    (fun (vname, _) ->
      let v = Dataset.variant_named ds vname in
      Fmt.pr "@.== variant %s (%d tuples) ==@.%a@." vname
        (Instance.size v.Dataset.vinstance)
        Schema.pp v.Dataset.vschema)
    ds.Dataset.variants

let schemas_cmd =
  Cmd.v
    (Cmd.info "schemas" ~doc:"Print a dataset's schema variants and constraints.")
    Term.(const schemas $ dataset_arg)

(* -------------------------- transform --------------------------- *)

let transform dataset =
  let ds = dataset_of_name dataset in
  List.iter
    (fun (vname, tr) ->
      if tr <> [] then begin
        Fmt.pr "@.variant %-14s: %a@." vname Transform.pp tr;
        let ok = Transform.round_trips ds.Dataset.instance tr in
        Fmt.pr "  instance round trip inv(tau(I)) = I: %b@." ok;
        let v = Dataset.variant_named ds vname in
        Fmt.pr "  transformed instance: %d tuples, constraints satisfied: %b@."
          (Instance.size v.Dataset.vinstance)
          (Instance.satisfies_constraints v.Dataset.vinstance)
      end)
    ds.Dataset.variants

let transform_cmd =
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Apply each schema variant's (de)composition and verify invertibility.")
    Term.(const transform $ dataset_arg)

(* ---------------------------- oracle ---------------------------- *)

let oracle n_vars n_clauses seed =
  let ds = Uwcse.generate () in
  let schema = Transform.apply_schema ds.Dataset.schema Uwcse.to_denorm2 in
  let def =
    Castor_qlearn.Gen.random_definition
      ~rng:(Random.State.make [| seed |])
      ~schema ~target_name:"t" ~n_clauses ~n_vars ()
  in
  Fmt.pr "hidden target:@.%a@.@." Clause.pp_definition def;
  let o = Castor_qlearn.Oracle.make def in
  let r = Castor_qlearn.A2.learn ~target_name:"t" o in
  Fmt.pr "A2 result: converged=%b  EQs=%d  MQs=%d@.%a@." r.Castor_qlearn.A2.converged
    r.Castor_qlearn.A2.eqs r.Castor_qlearn.A2.mqs Clause.pp_definition
    r.Castor_qlearn.A2.hypothesis

let oracle_cmd =
  Cmd.v
    (Cmd.info "oracle" ~doc:"Run the A2 query-based learner against a random target.")
    Term.(
      const oracle
      $ Arg.(value & opt int 5 & info [ "vars" ] ~doc:"Variables per clause.")
      $ Arg.(value & opt int 2 & info [ "clauses" ] ~doc:"Clauses in the target.")
      $ seed_arg)

(* ---------------------------- export ---------------------------- *)

let export dataset variant out =
  let ds = dataset_of_name dataset in
  let vname = Option.value ~default:(fst (List.hd ds.Dataset.variants)) variant in
  let v = Dataset.variant_named ds vname in
  let exported =
    {
      ds with
      Dataset.schema = v.Dataset.vschema;
      instance = v.Dataset.vinstance;
      variants = [ ("base", []) ];
    }
  in
  Dataset.export exported out;
  Fmt.pr "wrote %s/{schema,facts,examples}.castor (%d tuples)@." out
    (Instance.size v.Dataset.vinstance)

let export_cmd =
  Cmd.v
    (Cmd.info "export" ~doc:"Write a dataset variant to .castor text files.")
    Term.(
      const export $ dataset_arg $ variant_arg
      $ Arg.(value & opt string "export" & info [ "o"; "out" ] ~doc:"Output directory."))

(* ---------------------------- import ---------------------------- *)

let gate_of_string = function
  | "off" -> `Off
  | "warn" -> `Warn
  | "strict" -> `Strict
  | s -> failwith ("unknown gate " ^ s ^ " (try off|warn|strict)")

let import dir algo gate =
  let ds =
    Dataset.import ~name:(Filename.basename dir) ~gate:(gate_of_string gate) dir
  in
  let a = Algos.of_name algo in
  let prep = Experiment.prepare ds "base" in
  let t0 = Unix.gettimeofday () in
  let def = Experiment.train_full prep a in
  let dt = Unix.gettimeofday () -. t0 in
  let n_pos = Castor_ilp.Coverage.length prep.Experiment.all_pos in
  let n_neg = Castor_ilp.Coverage.length prep.Experiment.all_neg in
  let m =
    Experiment.test_metrics prep def
      (Array.init n_pos Fun.id, Array.init n_neg Fun.id)
  in
  Fmt.pr "%s on imported %s (%.2fs): precision %.3f recall %.3f@."
    a.Experiment.algo_name dir dt m.Metrics.precision m.Metrics.recall;
  Fmt.pr "@.%a@." Clause.pp_definition def

let import_cmd =
  Cmd.v
    (Cmd.info "import" ~doc:"Learn from a directory of .castor files.")
    Term.(
      const import
      $ Arg.(value & opt string "export" & info [ "i"; "in" ] ~doc:"Input directory.")
      $ algo_arg
      $ Arg.(
          value & opt string "warn"
          & info [ "gate" ]
              ~doc:
                "Static-analysis gate for the imported files: off, warn or \
                 strict (strict fails the import on errors)."))

(* ------------------------------ sql ------------------------------ *)

let sql dataset variant algo =
  let ds = dataset_of_name dataset in
  let vname = Option.value ~default:(fst (List.hd ds.Dataset.variants)) variant in
  let a = Algos.of_name algo in
  let prep = Experiment.prepare ds vname in
  let def = Experiment.train_full prep a in
  match def.Castor_logic.Clause.clauses with
  | [] -> Fmt.pr "-- no definition learned@."
  | _ ->
      Fmt.pr "%s@."
        (Castor_logic.Sql.create_view prep.Experiment.pvariant.Dataset.vschema def)

let sql_cmd =
  Cmd.v
    (Cmd.info "sql" ~doc:"Learn a definition and print it as a SQL view.")
    Term.(const sql $ dataset_arg $ variant_arg $ algo_arg)

(* ----------------------------- stats ----------------------------- *)

let stats dataset variant algo domains json out seed =
  let module Obs = Castor_obs.Obs in
  let ds = dataset_of_name dataset in
  let vname = Option.value ~default:(fst (List.hd ds.Dataset.variants)) variant in
  let a = Algos.of_name ~domains algo in
  let prep = Experiment.prepare ds vname in
  Castor_ilp.Coverage.set_domains prep.Experiment.all_pos domains;
  Castor_ilp.Coverage.set_domains prep.Experiment.all_neg domains;
  (* [prepare]'s saturations run before the reset *)
  let truncated0 = Obs.Counter.value Castor_ilp.Bottom.c_truncated in
  Obs.reset ();
  let def = Experiment.train_full ~seed prep a in
  write_out out (Obs.to_json ());
  if json then print_endline (Obs.to_json ())
  else begin
    Fmt.pr "%s on %s/%s learned %d clause(s); observability report:@.@."
      a.Experiment.algo_name dataset vname
      (List.length def.Castor_logic.Clause.clauses);
    (* derived hot-path health lines: coverage-cache effectiveness, how
       many subsumption tests ran past the step budget and how many
       saturations stayed truncated *)
    let hits = Obs.Counter.value Castor_ilp.Stats.c_cache_hits in
    let misses = Obs.Counter.value Castor_ilp.Coverage.c_cache_misses in
    let lookups = hits + misses in
    if lookups > 0 then
      Fmt.pr "coverage cache: %d/%d hits (%.1f%%), %d key builds@." hits
        lookups
        (100. *. float_of_int hits /. float_of_int lookups)
        (Obs.Counter.value Castor_ilp.Coverage.c_key_builds);
    let fallbacks = Obs.Counter.value Castor_ilp.Coverage.c_budget_fallbacks in
    if fallbacks > 0 then
      Fmt.pr "coverage tests finished past the step budget: %d@." fallbacks;
    let truncated =
      truncated0 + Obs.Counter.value Castor_ilp.Bottom.c_truncated
    in
    if truncated > 0 then
      Fmt.pr "saturations still truncated after the last budget doubling: %d@."
        truncated;
    Fmt.pr "@.";
    print_string (Obs.report ())
  end

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Train once and print the Obs observability report (operation \
          counters, span timings, slowest coverage vectors).")
    Term.(
      const stats $ dataset_arg $ variant_arg $ algo_arg
      $ Arg.(
          value & opt int 1
          & info [ "domains" ] ~doc:"Parallel coverage-test domains.")
      $ json_arg $ out_arg $ seed_arg)

(* ---------------------------- discover --------------------------- *)

let discover dataset =
  let ds = dataset_of_name dataset in
  let inst = ds.Dataset.instance in
  Fmt.pr "discovered unary inclusion dependencies:@.";
  List.iter
    (fun ind -> Fmt.pr "  %a@." Schema.pp_ind ind)
    (Discovery.unary_inds inst);
  Fmt.pr "@.discovered functional dependencies (LHS ≤ 2):@.";
  List.iter
    (fun (r : Schema.relation) ->
      List.iter
        (fun (fd : Schema.fd) ->
          Fmt.pr "  %s: %a -> %a@." fd.Schema.fd_rel
            Fmt.(list ~sep:comma string)
            fd.Schema.fd_lhs
            Fmt.(list ~sep:comma string)
            fd.Schema.fd_rhs)
        (Discovery.fds inst r.Schema.rname))
    ds.Dataset.schema.Schema.relations;
  Fmt.pr "@.composition proposals (lossless by declared INDs):@.";
  List.iter
    (fun op -> Fmt.pr "  %a@." Transform.pp_op op)
    (Normalize.compose_advisor ds.Dataset.schema);
  Fmt.pr "@.BCNF decomposition proposals (by declared FDs):@.";
  List.iter
    (fun (r : Schema.relation) ->
      match Normalize.bcnf_decompose ds.Dataset.schema r.Schema.rname with
      | Some op -> Fmt.pr "  %a@." Transform.pp_op op
      | None -> ())
    ds.Dataset.schema.Schema.relations

let discover_cmd =
  Cmd.v
    (Cmd.info "discover"
       ~doc:"Discover dependencies in a dataset and propose (de)normalizations.")
    Term.(const discover $ dataset_arg)

(* ---------------------------- analyze ---------------------------- *)

module Diagnostic = Castor_analysis.Diagnostic
module Analyze = Castor_analysis.Analyze

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let print_rule_catalog () =
  Fmt.pr "%-32s %-8s %s@." "RULE" "LEVEL" "DESCRIPTION";
  List.iter
    (fun (r : Analyze.rule) ->
      Fmt.pr "%-32s %-8s %s@." r.Analyze.id
        (Diagnostic.severity_string r.Analyze.severity)
        r.Analyze.doc)
    Analyze.rules

(* shared tail of both analyze paths: emit, optionally persist, and
   set the exit status from the error count *)
let emit_diagnostics groups json out =
  let all = List.concat_map snd groups in
  write_out out (Diagnostic.to_json all);
  if json then print_endline (Diagnostic.to_json all)
  else begin
    List.iter
      (fun (label, diags) ->
        if diags <> [] then begin
          Fmt.pr "== %s ==@." label;
          print_string (Diagnostic.render diags)
        end)
      groups;
    if all = [] then Fmt.pr "analyze: no diagnostics@."
    else
      Fmt.pr "analyze: %d diagnostic(s), %d error(s) total@."
        (List.length all)
        (List.length (Diagnostic.errors all))
  end;
  if Diagnostic.has_errors all then exit 1

let analyze dataset clauses_file clause_str sources rules json out seed =
  (* analysis is deterministic: the seed is accepted and ignored, only
     so sweep scripts can pass one uniform flag set across
     subcommands *)
  ignore (seed : int);
  if rules then print_rule_catalog ()
  else if sources <> [] then begin
    (* OCaml-source lints run standalone: no dataset context needed.
       All files go to the AST engine in one call, so cross-module
       rules (worker closures reaching another module's globals) see
       the whole set. *)
    let groups =
      Analyze.sources (List.map (fun f -> (f, read_file f)) sources)
    in
    emit_diagnostics groups json out
  end
  else begin
    let ds = dataset_of_name dataset in
    let groups =
      match (clauses_file, clause_str) with
      | None, None ->
          (* mirror the experiment defaults so the saturation-budget
             estimate reflects what `learn` would actually run *)
          let budget =
            Castor_learners.Problem.analysis_budget
              Experiment.default_bottom_params
          in
          Analyze.dataset_checks ~budget ~base:ds.Dataset.schema
            ~variants:ds.Dataset.variants ~target:ds.Dataset.target
            ~const_pool_domains:(List.map fst ds.Dataset.const_pool)
            ~no_expand_domains:ds.Dataset.no_expand_domains ()
      | file, inline ->
          let texts =
            Option.to_list (Option.map (fun f -> (f, read_file f)) file)
            @ Option.to_list (Option.map (fun s -> ("<clause>", s)) inline)
          in
          List.map
            (fun (label, text) ->
              ( label,
                Analyze.clauses_text ~schema:ds.Dataset.schema
                  ~target:ds.Dataset.target text ))
            texts
    in
    emit_diagnostics groups json out
  end

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static-analysis pass: schema, transformation and \
          inferred-mode lints over a dataset, or clause lints over a file or \
          inline clause. Exits nonzero when errors are found.")
    Term.(
      const analyze $ dataset_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "clauses" ] ~doc:"Lint the clauses in $(docv)." ~docv:"FILE")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "clause" ] ~doc:"Lint one inline clause string.")
      $ Arg.(
          value & opt_all string []
          & info [ "source" ]
              ~doc:
                "Lint an OCaml source $(docv) for direct Instance/Store \
                 lookups that bypass the Backend seam (repeatable)."
              ~docv:"FILE")
      $ Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule catalog and exit.")
      $ json_arg $ out_arg $ seed_arg)

(* ----------------------------- fuzz ------------------------------ *)

let fuzz dataset seed budget max_depth learners no_induce no_shrink json out
    expect =
  let module Fuzz = Castor_fuzz.Fuzz in
  let module Sweep = Castor_fuzz.Sweep in
  let module Shrink = Castor_fuzz.Shrink in
  let ds = dataset_of_name dataset in
  let learners = match learners with [] -> Learner.names () | ls -> ls in
  let config =
    {
      Fuzz.seed;
      budget;
      max_depth;
      learners;
      induce = not no_induce;
      shrink = not no_shrink;
    }
  in
  let report = Fuzz.run ~config ds in
  let doc = Fuzz.report_to_json report in
  write_out out doc;
  if json then print_endline doc
  else begin
    Fmt.pr "fuzz %s: seed %d, %d generated variant(s)@." dataset seed
      (List.length report.Fuzz.rp_variants);
    Option.iter
      (fun b -> Fmt.pr "induced bias: %a@." Castor_fuzz.Bias.pp b)
      report.Fuzz.rp_bias;
    List.iter
      (fun (name, ops) -> Fmt.pr "  %s: %a@." name Transform.pp ops)
      report.Fuzz.rp_variants;
    List.iter
      (fun (v : Sweep.verdict) ->
        Fmt.pr "%s: %s@." v.Sweep.v_learner
          (if v.Sweep.v_equivalent then "data-equivalent on all variants"
           else "DIVERGES on " ^ String.concat ", " v.Sweep.v_diverging))
      report.Fuzz.rp_verdicts;
    List.iter
      (fun cx -> Fmt.pr "@.%a@." Shrink.pp_counterexample cx)
      report.Fuzz.rp_counterexamples
  end;
  let broken =
    List.filter (fun l -> not (Fuzz.independent report ~learner:l)) expect
  in
  if report.Fuzz.rp_planner_divergences <> [] then begin
    Fmt.epr "planner strategies disagree in result (kernel vs subsumption): %s@."
      (String.concat ", "
         (List.map
            (fun (v, c) -> v ^ ": " ^ c)
            report.Fuzz.rp_planner_divergences));
    exit 1
  end;
  if broken <> [] then begin
    Fmt.epr "schema independence violated for: %s@." (String.concat ", " broken);
    exit 1
  end

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Zero-config schema-variant fuzzing: induce the language bias from \
          the raw data, generate a seeded family of valid schema variants, \
          sweep learners across variants, and shrink any \
          schema-independence failure to a minimal counterexample. Exits \
          nonzero when an expected-independent learner diverges.")
    Term.(
      const fuzz $ dataset_arg $ seed_arg
      $ Arg.(
          value & opt int 8
          & info [ "budget" ] ~doc:"Maximum number of generated variants.")
      $ Arg.(
          value & opt int 2
          & info [ "max-depth" ] ~doc:"Maximum chained transformations per variant.")
      $ Arg.(
          value & opt_all algo_conv []
          & info [ "a"; "algo" ]
              ~doc:"Learner to sweep (repeatable; default: every registered learner).")
      $ Arg.(
          value & flag
          & info [ "no-induce" ]
              ~doc:"Keep the dataset's hand-written bias instead of re-inducing it.")
      $ Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip counterexample shrinking.")
      $ json_arg $ out_arg
      $ Arg.(
          value
          & opt_all string [ "castor" ]
          & info [ "expect-independent" ]
              ~doc:
                "Learner that must be schema independent (repeatable); a \
                 divergence makes the command fail."))

(* ----------------------------------------------------------------- *)

let () =
  let doc = "Schema independent relational learning (Castor)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "castor" ~doc)
          [
            learn_cmd; schemas_cmd; transform_cmd; oracle_cmd; export_cmd;
            import_cmd; sql_cmd; discover_cmd; stats_cmd; analyze_cmd; fuzz_cmd;
          ]))
