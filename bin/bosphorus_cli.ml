(* The bosphorus command-line tool: read a problem in ANF or CNF, run the
   XL-ElimLin-SAT fact-learning loop, write the processed ANF and CNF, and
   optionally solve with one of the three solver profiles. *)

let ( let* ) = Result.bind

type format = Anf_format | Cnf_format

let detect_format path =
  if Filename.check_suffix path ".anf" then Ok Anf_format
  else if Filename.check_suffix path ".cnf" || Filename.check_suffix path ".dimacs" then
    Ok Cnf_format
  else Error (`Msg "cannot infer format: use a .anf, .cnf or .dimacs file or pass --format")

let read_problem format path =
  match format with
  | Anf_format -> (
      match Anf.Anf_io.parse_file path with
      | polys -> Ok (`Anf polys)
      | exception Anf.Anf_io.Parse_error m -> Error (`Msg ("ANF parse error: " ^ m))
      | exception Sys_error m -> Error (`Msg m))
  | Cnf_format -> (
      (* accepts XOR-extended DIMACS ('x' lines) transparently *)
      match Cnf.Dimacs.parse_file_extended path with
      | f, xors -> Ok (`Cnf (f, xors))
      | exception Cnf.Dimacs.Parse_error m -> Error (`Msg ("DIMACS parse error: " ^ m))
      | exception Sys_error m -> Error (`Msg m))

let pp_status ppf = function
  | Bosphorus.Driver.Solved_sat _ -> Format.pp_print_string ppf "SATISFIABLE"
  | Bosphorus.Driver.Solved_unsat -> Format.pp_print_string ppf "UNSATISFIABLE"
  | Bosphorus.Driver.Processed -> Format.pp_print_string ppf "PROCESSED"
  | Bosphorus.Driver.Degraded -> Format.pp_print_string ppf "DEGRADED"

let report outcome =
  let facts = outcome.Bosphorus.Driver.facts in
  Format.printf "status: %a@." pp_status outcome.Bosphorus.Driver.status;
  Format.printf "iterations: %d (SAT calls: %d)@." outcome.Bosphorus.Driver.iterations
    outcome.Bosphorus.Driver.sat_calls;
  Format.printf "facts learnt: %d (propagation %d, XL %d, ElimLin %d, SAT %d, GB %d)@."
    (Bosphorus.Facts.size facts)
    (Bosphorus.Facts.count_by facts Bosphorus.Facts.Propagation)
    (Bosphorus.Facts.count_by facts Bosphorus.Facts.Xl)
    (Bosphorus.Facts.count_by facts Bosphorus.Facts.Elimlin)
    (Bosphorus.Facts.count_by facts Bosphorus.Facts.Sat_solver)
    (Bosphorus.Facts.count_by facts Bosphorus.Facts.Groebner);
  Format.printf "processed ANF: %d equations; processed CNF: %d vars, %d clauses@."
    (List.length outcome.Bosphorus.Driver.anf)
    (Cnf.Formula.nvars outcome.Bosphorus.Driver.cnf)
    (Cnf.Formula.n_clauses outcome.Bosphorus.Driver.cnf);
  (match outcome.Bosphorus.Driver.budget_report with
  | Some r -> Format.printf "budget: %a@." Harness.Budget.pp_report r
  | None -> ());
  match outcome.Bosphorus.Driver.status with
  | Bosphorus.Driver.Solved_sat sol ->
      Format.printf "solution:";
      List.iter (fun (x, v) -> Format.printf " x%d=%d" x (if v then 1 else 0)) sol;
      Format.printf "@."
  | Bosphorus.Driver.Solved_unsat | Bosphorus.Driver.Processed
  | Bosphorus.Driver.Degraded ->
      ()

let final_solve profile_name budget cnf =
  match Sat.Profiles.of_name profile_name with
  | None -> Error (`Msg ("unknown solver profile: " ^ profile_name))
  | Some profile ->
      let out, secs =
        Harness.Timing.time (fun () -> Sat.Profiles.solve ?conflict_budget:budget profile cnf)
      in
      Format.printf "final solve (%s): %a in %.3fs@." profile_name Sat.Types.pp_result
        out.Sat.Profiles.result secs;
      (match out.Sat.Profiles.stats with
      | Some st -> Format.printf "stats: %a@." Sat.Types.pp_stats st
      | None -> ());
      Ok ()

(* --budget-report FILE: dump the run's resource accounting as a small
   JSON object (one per run), written even when no ceiling was set.  The
   document goes through Obs.Sink: the write is atomic (temp + rename)
   and replaces the "aborted" fallback registered before the run. *)
let write_budget_report path outcome =
  let esc s =
    let b = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let b = Buffer.create 256 in
  let status = Format.asprintf "%a" pp_status outcome.Bosphorus.Driver.status in
  (match outcome.Bosphorus.Driver.budget_report with
  | None ->
      Printf.bprintf b "{ \"status\": \"%s\", \"tripped\": false }\n" (esc status)
  | Some r ->
      Printf.bprintf b "{ \"status\": \"%s\"" (esc status);
      (match r.Harness.Budget.trip with
      | None -> Printf.bprintf b ", \"tripped\": false"
      | Some t ->
          Printf.bprintf b
            ", \"tripped\": true, \"trip_kind\": \"%s\", \"trip_layer\": \"%s\", \
             \"trip_iteration\": %d, \"trip_detail\": \"%s\""
            (esc (Harness.Budget.kind_name t.Harness.Budget.kind))
            (esc t.Harness.Budget.layer) t.Harness.Budget.at_iteration
            (esc t.Harness.Budget.detail));
      Printf.bprintf b
        ", \"wall_s\": %.6f, \"conflicts_used\": %d, \"cells_peak\": %d, \"polls\": %d }\n"
        r.Harness.Budget.wall_s r.Harness.Budget.conflicts_used
        r.Harness.Budget.cells_peak r.Harness.Budget.polls);
  Obs.Sink.register ~key:"budget-report" ~path (fun oc -> Buffer.output_buffer oc b);
  Obs.Sink.write_now ~key:"budget-report"

(* --trace/--metrics/--budget-report files are registered with the
   at_exit sink *before* the run: an uncaught exception, a budget trip or
   a --status-exit-codes exit still leaves every configured file parseable
   (open spans are truncation-terminated by the trace exporter). *)
let arm_observability ~trace_path ~metrics_path ~budget_report_path =
  Option.iter
    (fun path ->
      Obs.Trace.set_enabled true;
      Obs.Sink.register ~key:"trace" ~path (fun oc ->
          output_string oc (Obs.Trace.to_json ())))
    trace_path;
  Option.iter
    (fun path ->
      Obs.Metrics.set_enabled true;
      Obs.Sink.register ~key:"metrics" ~path (fun oc ->
          output_string oc (Obs.Metrics.to_json ())))
    metrics_path;
  Option.iter
    (fun path ->
      Obs.Sink.register ~key:"budget-report" ~path (fun oc ->
          output_string oc "{ \"status\": \"ABORTED\", \"tripped\": false }\n"))
    budget_report_path

let flush_observability ~trace_path ~metrics_path =
  Option.iter
    (fun path ->
      Obs.Sink.write_now ~key:"trace";
      Format.printf "trace: wrote %s (%d events, %d spans dropped)@." path
        (Obs.Trace.n_events ()) (Obs.Trace.dropped ()))
    trace_path;
  Option.iter
    (fun path ->
      Obs.Sink.write_now ~key:"metrics";
      Format.printf "metrics: wrote %s@." path)
    metrics_path

(* --status-exit-codes: Sat/Unsat/Degraded leave through distinct exit
   codes so scripts (the CI fuzz-smoke job) can tell the three apart
   without parsing output; PROCESSED keeps the plain success code. *)
let status_exit_code = function
  | Bosphorus.Driver.Solved_sat _ -> 10
  | Bosphorus.Driver.Solved_unsat -> 20
  | Bosphorus.Driver.Degraded -> 30
  | Bosphorus.Driver.Processed -> 0

(* --lint: run the audit layer's structural linter over the input file and
   every pipeline-produced artifact; errors make the run fail. *)
let run_lint format input_path outcome =
  let input_diags =
    match format with
    | Cnf_format -> (
        match
          let ic = open_in input_path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | text -> Audit.Lint.lint_dimacs_text text
        | exception Sys_error _ -> [])
    | Anf_format -> []
  in
  let diags =
    input_diags
    @ Audit.Lint.lint_anf outcome.Bosphorus.Driver.anf
    @ Audit.Lint.lint_cnf outcome.Bosphorus.Driver.cnf
    @ Audit.Lint.lint_facts outcome.Bosphorus.Driver.facts
  in
  List.iter (fun d -> Format.printf "%a@." Audit.Diagnostic.pp d) diags;
  Format.printf "lint: %a@." Audit.Diagnostic.pp_summary diags;
  match Audit.Diagnostic.n_errors diags with
  | 0 -> Ok ()
  | n -> Error (`Msg (Printf.sprintf "lint found %d error(s)" n))

(* --audit: independently certify every learnt fact and run the registered
   cross-layer invariant checks. *)
let run_audit outcome =
  let r = Audit.Certify.certify outcome in
  let inv_errors =
    List.filter Audit.Diagnostic.is_error (Audit.Invariant.check_outcome outcome)
  in
  List.iter (fun d -> Format.printf "%a@." Audit.Diagnostic.pp d) inv_errors;
  if Audit.Certify.all_certified r && inv_errors = [] then begin
    Format.printf "audit: PASS (%d/%d facts certified)@." r.Audit.Certify.n_certified
      r.Audit.Certify.n_facts;
    Ok ()
  end
  else begin
    Format.printf "audit: FAIL@.%a@." Audit.Certify.pp r;
    Error (`Msg "audit failed")
  end

let run_main input format_opt out_anf out_cnf solver budget no_learning lint audit
    budget_report_path status_exit_codes trace_path metrics_path config =
  let config =
    if audit then { config with Bosphorus.Config.audit_trail = true } else config
  in
  let* () =
    if config.Bosphorus.Config.audit_trail
       && config.Bosphorus.Config.gauss = Bosphorus.Config.Gauss_on
    then
      Error
        (`Msg
           "--gauss on is incompatible with --audit: parity-derived reason \
            clauses are not RUP-certifiable (use --gauss auto or off)")
    else Ok ()
  in
  let* () =
    let k = config.Bosphorus.Config.karnaugh_vars in
    if k < 0 || k > Minimize.Quine_mccluskey.max_vars then
      Error
        (`Msg
           (Printf.sprintf "-K %d is out of range: the Karnaugh-map bound must \
                            be in 0..%d" k Minimize.Quine_mccluskey.max_vars))
    else Ok ()
  in
  arm_observability ~trace_path ~metrics_path ~budget_report_path;
  let* format =
    match format_opt with
    | Some "anf" -> Ok Anf_format
    | Some "cnf" -> Ok Cnf_format
    | Some other -> Error (`Msg ("unknown format: " ^ other))
    | None -> detect_format input
  in
  let* problem = read_problem format input in
  let outcome =
    match problem with
    | `Anf polys ->
        if no_learning then
          (* conversion only: behave like a plain ANF-to-CNF translator *)
          let conv = Bosphorus.Anf_to_cnf.convert ~config polys in
          {
            Bosphorus.Driver.status = Bosphorus.Driver.Processed;
            anf = polys;
            cnf = conv.Bosphorus.Anf_to_cnf.formula;
            facts = Bosphorus.Facts.create ();
            iterations = 0;
            sat_calls = 0;
            sat_rounds = [];
            trail = None;
            budget_report = None;
          }
        else Bosphorus.Driver.run ~config polys
    | `Cnf (f, xors) ->
        if no_learning then
          {
            Bosphorus.Driver.status = Bosphorus.Driver.Processed;
            anf = (Bosphorus.Cnf_to_anf.convert ~config f).Bosphorus.Cnf_to_anf.polys;
            cnf = f;
            facts = Bosphorus.Facts.create ();
            iterations = 0;
            sat_calls = 0;
            sat_rounds = [];
            trail = None;
            budget_report = None;
          }
        else
          let outcome = Bosphorus.Driver.run_cnf ~config ~xors f in
          (* the paper recommends returning the original CNF augmented with
             the learnt facts rather than the round-tripped encoding *)
          { outcome with Bosphorus.Driver.cnf = Bosphorus.Driver.augmented_cnf f outcome }
  in
  report outcome;
  Option.iter (fun path -> write_budget_report path outcome) budget_report_path;
  let* () = if lint then run_lint format input outcome else Ok () in
  let* () = if audit then run_audit outcome else Ok () in
  Option.iter (fun path -> Anf.Anf_io.write_file path outcome.Bosphorus.Driver.anf) out_anf;
  Option.iter (fun path -> Cnf.Dimacs.write_file path outcome.Bosphorus.Driver.cnf) out_cnf;
  let* () =
    match (solver, outcome.Bosphorus.Driver.status) with
    | Some name, (Bosphorus.Driver.Processed | Bosphorus.Driver.Degraded) ->
        final_solve name budget outcome.Bosphorus.Driver.cnf
    | Some name, _ ->
        Format.printf "(skipping final %s solve: already decided)@." name;
        Ok ()
    | None, _ -> Ok ()
  in
  flush_observability ~trace_path ~metrics_path;
  if status_exit_codes then exit (status_exit_code outcome.Bosphorus.Driver.status);
  Ok ()

open Cmdliner

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input problem (.anf or .cnf).")

let format_arg =
  Arg.(value & opt (some string) None & info [ "format" ] ~docv:"FMT" ~doc:"Input format: anf or cnf.")

let out_anf_arg =
  Arg.(value & opt (some string) None & info [ "write-anf" ] ~docv:"FILE" ~doc:"Write the processed ANF.")

let out_cnf_arg =
  Arg.(value & opt (some string) None & info [ "write-cnf" ] ~docv:"FILE" ~doc:"Write the processed CNF.")

let solver_arg =
  Arg.(value & opt (some string) None
       & info [ "solve" ] ~docv:"PROFILE" ~doc:"Solve the processed CNF with minisat, lingeling or cms5.")

let budget_arg =
  Arg.(value & opt (some int) None
       & info [ "conflict-budget" ] ~docv:"N" ~doc:"Conflict budget for the final solve.")

let no_learning_arg =
  Arg.(value & flag & info [ "no-learning" ] ~doc:"Skip the learning loop; only convert formats.")

let lint_arg =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Lint the input and every produced artifact (ANF canonical form, \
                 CNF structure, fact store); exit nonzero on lint errors.")

let audit_arg =
  Arg.(value & flag
       & info [ "audit" ]
           ~doc:"Record an audit trail and independently certify every learnt \
                 fact (GF(2) row-space membership or RUP replay), plus run the \
                 registered invariant checks; exit nonzero unless all facts \
                 certify.")

let budget_report_arg =
  Arg.(value & opt (some string) None
       & info [ "budget-report" ] ~docv:"FILE"
           ~doc:"Write the run's resource accounting (trip kind/layer, wall \
                 time, cumulative conflicts, peak monomial gauge) as JSON.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record nestable timed spans across the whole pipeline \
                 (driver iterations, XL/ElimLin/SAT stages, pool tasks, \
                 arena GCs) and write them as Chrome trace-event JSON: \
                 open the file in chrome://tracing or ui.perfetto.dev.  \
                 The file is written even if the run crashes or trips its \
                 budget.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Record counters/gauges/histograms (facts per technique, \
                 solver propagations/conflicts/restarts, ElimLin \
                 substitutions, XL expansion sizes) and write them as \
                 JSON.  Crash-safe like --trace.")

let status_exit_codes_arg =
  Arg.(value & flag
       & info [ "status-exit-codes" ]
           ~doc:"Exit with 10 (SATISFIABLE), 20 (UNSATISFIABLE), 30 (DEGRADED) \
                 or 0 (PROCESSED) so scripts can distinguish outcomes; off by \
                 default, where any completed run exits 0.")

(* -j and --portfolio are refused above [Runtime.Pool.max_width] while the
   command line is parsed, before any domain starts: wider requests could
   ask the runtime for more domains than it can spawn. *)
let width_conv =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n > Runtime.Pool.max_width ->
        Error
          (`Msg
             (Printf.sprintf "%d is above the limit of %d domains" n
                Runtime.Pool.max_width))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let config_term =
  let open Bosphorus.Config in
  let m = Arg.(value & opt int default.xl_sample_bits & info [ "M" ] ~doc:"XL/ElimLin subsample bits (linearised size ~2^M).") in
  let dm = Arg.(value & opt int default.xl_expand_bits & info [ "delta-M" ] ~doc:"XL expansion allowance bits.") in
  let d = Arg.(value & opt int default.xl_degree & info [ "D" ] ~doc:"XL multiplier degree.") in
  let k = Arg.(value & opt int default.karnaugh_vars & info [ "K" ] ~doc:"Karnaugh-map variable bound, 0..8.") in
  let l = Arg.(value & opt int default.xor_cut_length & info [ "L" ] ~doc:"XOR cutting length.") in
  let l' = Arg.(value & opt int default.clause_cut_positive & info [ "Lp" ] ~doc:"Clause-cutting positive-literal bound L'.") in
  let c0 = Arg.(value & opt int default.sat_budget_start & info [ "C" ] ~doc:"Initial SAT conflict budget.") in
  let iters = Arg.(value & opt int default.max_iterations & info [ "max-iterations" ] ~doc:"Learning loop bound.") in
  let seed = Arg.(value & opt int default.seed & info [ "seed" ] ~doc:"Subsampling RNG seed.") in
  let jobs =
    Arg.(value & opt width_conv default.jobs
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Domain-pool width for the GF(2) elimination's trailing \
                   row update, the one parallel kernel.  1 runs \
                   sequentially; 0 picks the machine's recommended domain \
                   count; at most 64.  Results are identical for every \
                   value.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECS"
             ~doc:"Wall-clock budget for the whole learning loop.  When it \
                   trips the run ends gracefully with status DEGRADED, \
                   keeping every fact learnt so far.")
  in
  let max_mem =
    Arg.(value & opt (some int) None
         & info [ "max-memory-monomials" ] ~docv:"N"
             ~doc:"Memory ceiling as a monomial/clause count (the dominant \
                   allocator in every layer); tripping it degrades the run \
                   like --timeout.")
  in
  let max_conf =
    Arg.(value & opt (some int) None
         & info [ "max-total-conflicts" ] ~docv:"N"
             ~doc:"Ceiling on cumulative CDCL conflicts across all SAT \
                   rounds (solver-reported counts, not requested budgets); \
                   tripping it degrades the run like --timeout.")
  in
  let portfolio =
    Arg.(value & opt width_conv default.portfolio
         & info [ "portfolio" ] ~docv:"K"
             ~doc:"Race K diversified SAT configurations per round on \
                   dedicated domains, sharing learnt units and binaries \
                   through a lock-free exchange; the first worker to decide \
                   cancels the rest and its solver carries the round's \
                   facts.  1 (the default) keeps the single-solver \
                   semantics bit-for-bit; at most 64.")
  in
  let gauss =
    let mode =
      Arg.enum [ ("auto", Gauss_auto); ("on", Gauss_on); ("off", Gauss_off) ]
    in
    Arg.(value & opt mode default.gauss
         & info [ "gauss" ] ~docv:"MODE"
             ~doc:"In-search parity reasoning over the encoding's XOR \
                   constraints: the SAT stages hand the recovered XOR rows \
                   to the solver's incremental Gauss-Jordan engine, which \
                   propagates implied literals and detects parity conflicts \
                   during search.  MODE is $(b,auto) (engage when a round \
                   carries at least 8 rows; the default), \
                   $(b,on) or $(b,off).  $(b,on) is rejected together with \
                   --audit: parity-derived reason clauses are not \
                   RUP-certifiable.")
  in
  let build m dm d k l l' c0 iters seed jobs timeout_s max_memory_monomials
      max_total_conflicts portfolio gauss =
    {
      default with
      xl_sample_bits = m;
      xl_expand_bits = dm;
      xl_degree = d;
      karnaugh_vars = k;
      xor_cut_length = l;
      clause_cut_positive = l';
      sat_budget_start = c0;
      max_iterations = iters;
      seed;
      jobs = (if jobs <= 0 then Runtime.Pool.default_jobs () else jobs);
      timeout_s;
      max_memory_monomials;
      max_total_conflicts;
      portfolio = Int.max 1 portfolio;
      gauss;
    }
  in
  Term.(
    const build $ m $ dm $ d $ k $ l $ l' $ c0 $ iters $ seed $ jobs $ timeout
    $ max_mem $ max_conf $ portfolio $ gauss)

let cmd =
  let doc = "bridge ANF and CNF solvers by iterative fact learning" in
  let term =
    Term.(
      const run_main $ input_arg $ format_arg $ out_anf_arg $ out_cnf_arg $ solver_arg
      $ budget_arg $ no_learning_arg $ lint_arg $ audit_arg $ budget_report_arg
      $ status_exit_codes_arg $ trace_arg $ metrics_arg $ config_term)
  in
  Cmd.v (Cmd.info "bosphorus" ~doc) Term.(term_result term)

let () = exit (Cmd.eval cmd)
