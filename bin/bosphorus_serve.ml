(* bosphorus-serve: run the multi-tenant solve daemon in the foreground.
   Accepts concurrent jobs over a Unix-domain socket (see
   lib/service/protocol.mli for the wire format); stop it with the
   protocol's shutdown op or SIGINT/SIGTERM — both paths drain running
   jobs and unlink the socket. *)

let run_serve socket workers per_timeout per_memory per_conflicts cache_capacity
    max_frame seed portfolio metrics_path =
  (* Block termination signals before any daemon thread exists so every
     thread inherits the mask; a dedicated thread below receives them
     synchronously (an async Signal_handle would sit pending forever
     while all threads park in C calls). *)
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]);
  Option.iter
    (fun path ->
      Obs.Metrics.set_enabled true;
      Obs.Sink.register ~key:"metrics" ~path (fun oc ->
          output_string oc (Obs.Metrics.to_json ())))
    metrics_path;
  let base_config =
    {
      Bosphorus.Config.default with
      seed;
      portfolio = Int.max 1 portfolio;
    }
  in
  let per_client =
    {
      Harness.Budget.timeout_s = per_timeout;
      max_memory_monomials = per_memory;
      max_total_conflicts = per_conflicts;
    }
  in
  let cfg =
    {
      (Service.Daemon.default_config ~socket_path:socket) with
      workers = Int.max 1 workers;
      base_config;
      per_client;
      cache_capacity;
      max_frame;
    }
  in
  match Service.Daemon.check_config cfg with
  | Error msg -> Error (`Msg msg)
  | Ok () ->
  match Service.Daemon.start cfg with
  | exception Unix.Unix_error (e, _, arg) ->
      Error (`Msg (Printf.sprintf "cannot listen on %s: %s (%s)" socket
                     (Unix.error_message e) arg))
  | daemon ->
      ignore
        (Thread.create
           (fun () ->
             ignore (Thread.wait_signal [ Sys.sigint; Sys.sigterm ]);
             Service.Daemon.request_stop daemon)
           ());
      Format.printf "bosphorus-serve: listening on %s (%d workers)@." socket
        cfg.Service.Daemon.workers;
      Service.Daemon.wait daemon;
      Format.printf "bosphorus-serve: shut down@.";
      List.iter
        (fun (k, v) -> Format.printf "  %s: %s@." k (Harness.Json_out.float_to_json v))
        (Service.Daemon.stats daemon);
      Option.iter
        (fun path ->
          Obs.Sink.write_now ~key:"metrics";
          Format.printf "metrics: wrote %s@." path)
        metrics_path;
      Ok ()

open Cmdliner

let socket_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket path to listen on.")


let per_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "per-client-timeout" ] ~docv:"SECS"
           ~doc:"Fair-share wall-clock ceiling per client; sliced across a \
                 client's concurrently running jobs.  Tripping it degrades \
                 that client's job, never the daemon.")

let per_memory_arg =
  Arg.(value & opt (some int) None
       & info [ "per-client-memory" ] ~docv:"N"
           ~doc:"Fair-share memory ceiling per client, as a monomial/clause count.")

let per_conflicts_arg =
  Arg.(value & opt (some int) None
       & info [ "per-client-conflicts" ] ~docv:"N"
           ~doc:"Fair-share cumulative CDCL conflict ceiling per client.")

let cache_arg =
  Arg.(value & opt int 256
       & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Entries of the canonical-digest encoding cache (LRU).")

let max_frame_arg =
  Arg.(value & opt int Service.Protocol.default_max_frame
       & info [ "max-frame" ] ~docv:"BYTES"
           ~doc:"Largest accepted request frame; bigger frames get a \
                 structured oversized error.")

(* --workers and --portfolio are refused above [Runtime.Pool.max_width]
   while the command line is parsed, before any domain starts: wider
   requests could ask the runtime for more domains than it can spawn.  The
   combination is checked against the runtime's limit before the daemon
   starts. *)
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

let workers_arg =
  Arg.(value & opt width_conv 2
       & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains executing solve jobs (at most 64).  A daemon \
                 runs N x K + 1 domains for portfolio width K, and refuses \
                 to start above the runtime's limit of 128.")

let seed_arg =
  Arg.(value & opt int Bosphorus.Config.default.Bosphorus.Config.seed
       & info [ "seed" ] ~doc:"Subsampling RNG seed for every solve.")

let portfolio_arg =
  Arg.(value & opt width_conv Bosphorus.Config.default.Bosphorus.Config.portfolio
       & info [ "portfolio" ] ~docv:"K"
           ~doc:"SAT-stage portfolio width for every solve (at most 64).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Record service and solver metrics (service.requests, \
                 service.cache_hits, queue depth, ...) and write them as \
                 JSON at shutdown.")

let cmd =
  let doc = "multi-tenant Bosphorus solve daemon over a Unix-domain socket" in
  let term =
    Term.(
      const run_serve $ socket_arg $ workers_arg $ per_timeout_arg
      $ per_memory_arg $ per_conflicts_arg $ cache_arg $ max_frame_arg
      $ seed_arg $ portfolio_arg $ metrics_arg)
  in
  Cmd.v (Cmd.info "bosphorus-serve" ~doc) Term.(term_result term)

let () = exit (Cmd.eval cmd)
