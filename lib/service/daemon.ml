module B = Harness.Budget

type config = {
  socket_path : string;
  workers : int;
  base_config : Bosphorus.Config.t;
  per_client : B.limits;
  max_frame : int;
  cache_capacity : int;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    base_config = Bosphorus.Config.default;
    per_client = B.no_limits;
    max_frame = Protocol.default_max_frame;
    cache_capacity = 256;
  }

(* Registered once at module init (registration takes a mutex); bumping
   is atomic and a no-op while observability is disabled. *)
let m_requests = Obs.Metrics.counter "service.requests"
let m_cache_hits = Obs.Metrics.counter "service.cache_hits"
let m_degraded = Obs.Metrics.counter "service.degraded"
let m_session_reuses = Obs.Metrics.counter "service.session_reuses"
let g_queue_depth = Obs.Metrics.gauge "service.queue_depth"
let h_request_wall = Obs.Metrics.histogram "service.request_wall_s"

type session_slot = {
  session : Bosphorus.Driver.Session.t;
  mutable in_use : bool;
}

type t = {
  cfg : config;
  sched : Sched.t;
  cache : Cache.t;
  sessions : (string, session_slot) Hashtbl.t;
  sessions_m : Mutex.t;
  listen_fd : Unix.file_descr;
  started_at : float;
  stop_requested : bool Atomic.t;
  stop_m : Mutex.t;
  stop_cv : Condition.t;
  join_m : Mutex.t;
  mutable joined : bool;
  mutable worker_domains : unit Domain.t list;
  mutable accept_thread : Thread.t option;
  n_requests : int Atomic.t;
  n_degraded : int Atomic.t;
  n_session_reuses : int Atomic.t;
  n_protocol_errors : int Atomic.t;
}

let socket_path t = t.cfg.socket_path

(* ------------------------------------------------------------------ *)
(* sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* Check a client's pinned session out for exclusive use; a second
   concurrent job of the same client gets [None] and runs cold — the
   session is single-owner by contract. *)
let checkout_session t client =
  Mutex.lock t.sessions_m;
  let slot =
    match Hashtbl.find_opt t.sessions client with
    | Some slot -> slot
    | None ->
        let slot = { session = Bosphorus.Driver.Session.create (); in_use = false } in
        Hashtbl.replace t.sessions client slot;
        slot
  in
  let got = if slot.in_use then None else (slot.in_use <- true; Some slot) in
  Mutex.unlock t.sessions_m;
  got

let release_session t slot =
  Mutex.lock t.sessions_m;
  slot.in_use <- false;
  Mutex.unlock t.sessions_m

(* ------------------------------------------------------------------ *)
(* workers                                                             *)
(* ------------------------------------------------------------------ *)

(* Effective ceilings for one job: the per-client ceiling sliced by the
   client's concurrent share, further clamped by what the request asked
   for.  The driver's finalization reserve ({!B.loop_timeout_s}) is
   applied here because the daemon, not the driver, owns this budget. *)
let job_budget t job =
  let share = max 1 (Sched.running_of t.sched job.Sched.client) in
  let effective =
    B.clamp_limits
      ~ceiling:(B.slice_limits ~share t.cfg.per_client)
      job.Sched.submit.Protocol.limits
  in
  let loop_limits =
    match effective.B.timeout_s with
    | None -> effective
    | Some s -> { effective with B.timeout_s = Some (B.loop_timeout_s s) }
  in
  B.of_limits loop_limits

let exec t (job : Sched.job) =
  let started = Unix.gettimeofday () in
  let budget = job_budget t job in
  job.Sched.budget <- Some budget;
  (* a cancel that raced the dispatch window lands here *)
  if job.Sched.cancel_requested then
    B.cancel_now budget ~layer:"service"
      ~detail:(Printf.sprintf "job %d cancelled by client request" job.Sched.id);
  let config = t.cfg.base_config in
  let outcome, carried =
    match job.Sched.problem with
    | `Cnf (f, xors) -> (Bosphorus.Driver.run_cnf ~config ~budget ~xors f, 0)
    | `Anf polys -> (
        match checkout_session t job.Sched.client with
        | None -> (Bosphorus.Driver.run ~config ~budget polys, 0)
        | Some slot ->
            let session = slot.session in
            let carried =
              if Bosphorus.Driver.Session.compatible session ~config polys then
                Bosphorus.Driver.Session.carried_clauses session
              else 0
            in
            let outcome =
              Fun.protect
                ~finally:(fun () -> release_session t slot)
                (fun () -> Bosphorus.Driver.run ~config ~budget ~session polys)
            in
            (outcome, carried))
  in
  if carried > 0 then begin
    Atomic.incr t.n_session_reuses;
    Obs.Metrics.incr m_session_reuses
  end;
  Protocol.summary_of_outcome
    ~wall_s:(Unix.gettimeofday () -. started)
    ~cache_hit:false ~session_reused_clauses:carried outcome

let run_job t job =
  Obs.Metrics.set_gauge g_queue_depth (Sched.queue_depth t.sched);
  match
    Obs.Trace.with_span ~name:"service.request"
      ~args:
        (if Obs.Trace.enabled () then
           [
             ("client", job.Sched.client);
             ("job", string_of_int job.Sched.id);
           ]
         else [])
      (fun () -> exec t job)
  with
  | summary ->
      if summary.Protocol.status = "degraded" then begin
        Atomic.incr t.n_degraded;
        Obs.Metrics.incr m_degraded
      end;
      (* store only replay-sound results: unlimited, untripped, cold *)
      (match job.Sched.cache_key with
      | Some key
        when summary.Protocol.trip = None
             && summary.Protocol.session_reused_clauses = 0
             && summary.Protocol.status <> "degraded" ->
          Cache.store t.cache key summary
      | Some _ | None -> ());
      Obs.Metrics.observe h_request_wall summary.Protocol.wall_s;
      Sched.finish t.sched job (`Done summary)
  | exception e ->
      (* a failing job fails alone; the worker and daemon live on *)
      Sched.finish t.sched job (`Failed (Printexc.to_string e))

let rec worker_loop t =
  match Sched.next t.sched with
  | None -> ()
  | Some job ->
      run_job t job;
      worker_loop t

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats t =
  Sched.stats t.sched
  @ [
      ("requests", float_of_int (Atomic.get t.n_requests));
      ("cache_hits", float_of_int (Cache.hits t.cache));
      ("cache_misses", float_of_int (Cache.misses t.cache));
      ("cache_size", float_of_int (Cache.size t.cache));
      ("degraded", float_of_int (Atomic.get t.n_degraded));
      ("session_reuses", float_of_int (Atomic.get t.n_session_reuses));
      ("protocol_errors", float_of_int (Atomic.get t.n_protocol_errors));
      ("workers", float_of_int t.cfg.workers);
      ("uptime_s", Unix.gettimeofday () -. t.started_at);
    ]
  (* a counter reads 0 while recording is off, so it is shown only when on *)
  @
  if Obs.Metrics.enabled () then
    [ ("anf_to_cnf.cover_misses", float_of_int (Bosphorus.Anf_to_cnf.cover_misses ())) ]
  else []

(* ------------------------------------------------------------------ *)
(* connections                                                         *)
(* ------------------------------------------------------------------ *)

let parse_problem (sub : Protocol.submit) =
  match sub.Protocol.format with
  | Protocol.Anf -> (
      match Anf.Anf_io.parse_string sub.Protocol.text with
      | polys -> Ok (`Anf polys)
      | exception Anf.Anf_io.Parse_error m -> Error m)
  | Protocol.Cnf -> (
      match Cnf.Dimacs.parse_string_extended sub.Protocol.text with
      | f, xors -> Ok (`Cnf (f, xors))
      | exception Cnf.Dimacs.Parse_error m -> Error m)

(* Canonical text: parse → re-render, so spelling variants of the same
   instance share a cache key. *)
let canonical_text = function
  | `Anf polys -> Anf.Anf_io.write_string polys
  | `Cnf (f, xors) -> Cnf.Dimacs.write_string_extended f xors

let handle_submit t respond (sub : Protocol.submit) =
  Atomic.incr t.n_requests;
  Obs.Metrics.incr m_requests;
  match parse_problem sub with
  | Error m ->
      Atomic.incr t.n_protocol_errors;
      respond (Protocol.Error_reply { code = "parse"; message = m })
  | Ok problem -> (
      (* Cache eligibility: a conflict ceiling changes even untripped
         runs (per-round SAT budgets are clipped to what remains), so
         those results are not replayable and such requests bypass the
         cache entirely.  Wall/memory ceilings only observe until they
         trip: an untripped run under them equals the unlimited run, and
         serving a cached entry costs the client none of its budget. *)
      let cacheable =
        sub.Protocol.limits.B.max_total_conflicts = None
        && t.cfg.per_client.B.max_total_conflicts = None
      in
      let key =
        Cache.key ~config:t.cfg.base_config ~format:sub.Protocol.format
          ~canonical:(canonical_text problem)
      in
      let cached = if cacheable then Cache.find t.cache key else None in
      match cached with
      | Some s ->
          Obs.Metrics.incr m_cache_hits;
          let summary = { s with Protocol.cache_hit = true } in
          let job =
            Sched.add_completed t.sched ~client:sub.Protocol.client ~problem
              sub summary
          in
          respond (Protocol.Result (job.Sched.id, summary))
      | None ->
          let job =
            Sched.submit t.sched ~client:sub.Protocol.client
              ?cache_key:(if cacheable then Some key else None)
              ~problem sub
          in
          Obs.Metrics.set_gauge g_queue_depth (Sched.queue_depth t.sched);
          if sub.Protocol.wait then begin
            Sched.await t.sched job;
            match job.Sched.state with
            | Sched.Done ->
                respond
                  (Protocol.Result (job.Sched.id, Option.get job.Sched.summary))
            | Sched.Failed ->
                respond
                  (Protocol.Error_reply
                     {
                       code = "failed";
                       message =
                         Option.value ~default:"job failed" job.Sched.error;
                     })
            | Sched.Cancelled ->
                respond
                  (Protocol.Error_reply
                     {
                       code = "cancelled";
                       message =
                         Printf.sprintf "job %d was cancelled" job.Sched.id;
                     })
            | Sched.Queued | Sched.Running ->
                respond
                  (Protocol.Error_reply
                     { code = "internal"; message = "await returned early" })
          end
          else respond (Protocol.Accepted job.Sched.id))

let handle_request t respond = function
  | Protocol.Submit sub ->
      handle_submit t respond sub;
      `Continue
  | Protocol.Status id ->
      (match Sched.find t.sched id with
      | None ->
          respond
            (Protocol.Error_reply
               { code = "unknown-job"; message = Printf.sprintf "no job %d" id })
      | Some job ->
          respond
            (Protocol.Job_status
               (id, Sched.state_name job.Sched.state, job.Sched.summary)));
      `Continue
  | Protocol.Cancel id ->
      (match Sched.cancel t.sched id with
      | `Unknown ->
          respond
            (Protocol.Error_reply
               { code = "unknown-job"; message = Printf.sprintf "no job %d" id })
      | `Cancelled -> respond (Protocol.Job_status (id, "cancelled", None))
      | `Cancelling -> respond (Protocol.Job_status (id, "cancelling", None))
      | `Finished -> (
          match Sched.find t.sched id with
          | Some job ->
              respond
                (Protocol.Job_status
                   (id, Sched.state_name job.Sched.state, job.Sched.summary))
          | None ->
              respond
                (Protocol.Error_reply
                   { code = "unknown-job"; message = Printf.sprintf "no job %d" id })));
      `Continue
  | Protocol.Stats ->
      respond (Protocol.Stats_reply (stats t));
      `Continue
  | Protocol.Shutdown -> `Shutdown

let request_stop t =
  if not (Atomic.exchange t.stop_requested true) then begin
    Sched.stop t.sched;
    Mutex.lock t.stop_m;
    Condition.broadcast t.stop_cv;
    Mutex.unlock t.stop_m;
    (* wake the accepter with a throwaway connection *)
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () -> Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path))
     with Unix.Unix_error _ -> ())
  end

let handle_conn t fd =
  let respond resp = Protocol.write_frame fd (Protocol.encode_response resp) in
  let rec loop () =
    match Protocol.read_frame ~max_len:t.cfg.max_frame fd with
    | `Eof -> ()
    | `Oversized n ->
        Atomic.incr t.n_protocol_errors;
        respond
          (Protocol.Error_reply
             {
               code = "oversized";
               message =
                 Printf.sprintf "frame of %d bytes exceeds limit %d" n
                   t.cfg.max_frame;
             });
        loop ()
    | `Frame s -> (
        match Protocol.decode_request s with
        | Error m ->
            Atomic.incr t.n_protocol_errors;
            respond (Protocol.Error_reply { code = "malformed"; message = m });
            loop ()
        | Ok req -> (
            match handle_request t respond req with
            | `Continue -> loop ()
            | `Shutdown ->
                respond Protocol.Bye;
                request_stop t))
  in
  (* whatever a connection does — including dying mid-write — it only
     takes itself down *)
  (try loop () with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec accept_loop t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      if Atomic.get t.stop_requested then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ()
      end
      else begin
        ignore (Thread.create (fun () -> handle_conn t fd) ());
        accept_loop t
      end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
  | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop t
  | exception Unix.Unix_error _ ->
      (* listening socket gone (shutdown path) *)
      ()

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* 1 main domain, [workers] worker domains and, per worker,
   [portfolio - 1] pinned portfolio seats. *)
let domains_needed cfg =
  let portfolio = Int.max 1 cfg.base_config.Bosphorus.Config.portfolio in
  (cfg.workers * portfolio) + 1

let check_config cfg =
  if cfg.workers < 1 then Error "workers must be >= 1"
  else
    let n = domains_needed cfg in
    if n > Runtime.Pool.domain_limit then
      Error
        (Printf.sprintf
           "%d workers with portfolio %d need %d domains, above the \
            runtime's limit of %d"
           cfg.workers cfg.base_config.Bosphorus.Config.portfolio n
           Runtime.Pool.domain_limit)
    else Ok ()

let start cfg =
  (match check_config cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Daemon.start: " ^ msg));
  (* a peer hanging up mid-reply must surface as EPIPE on the handler
     thread, not as a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      cfg;
      sched = Sched.create ();
      cache = Cache.create ~capacity:cfg.cache_capacity ();
      sessions = Hashtbl.create 16;
      sessions_m = Mutex.create ();
      listen_fd;
      started_at = Unix.gettimeofday ();
      stop_requested = Atomic.make false;
      stop_m = Mutex.create ();
      stop_cv = Condition.create ();
      join_m = Mutex.create ();
      joined = false;
      worker_domains = [];
      accept_thread = None;
      n_requests = Atomic.make 0;
      n_degraded = Atomic.make 0;
      n_session_reuses = Atomic.make 0;
      n_protocol_errors = Atomic.make 0;
    }
  in
  t.worker_domains <-
    List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let wait t =
  Mutex.lock t.stop_m;
  while not (Atomic.get t.stop_requested) do
    Condition.wait t.stop_cv t.stop_m
  done;
  Mutex.unlock t.stop_m;
  Mutex.lock t.join_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.join_m)
    (fun () ->
      if not t.joined then begin
        t.joined <- true;
        List.iter Domain.join t.worker_domains;
        (match t.accept_thread with
        | Some th -> Thread.join th
        | None -> ());
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ()
      end)

let stop t =
  request_stop t;
  wait t
