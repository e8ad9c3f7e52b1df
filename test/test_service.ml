(* Service-mode tests: wire protocol round-trips, a daemon that survives
   hostile peers (malformed/truncated/oversized frames), cache-hit vs
   cache-miss equivalence, per-client session pinning, fair-share
   degradation under concurrent multi-tenant load, cancellation, fault
   injection, and clean shutdown.  Every daemon here runs in-process
   (worker domains + connection threads), talking over real Unix-domain
   sockets in the test's working directory. *)

module B = Bosphorus
module P = Anf.Poly
module SP = Service.Protocol

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)
(* ------------------------------------------------------------------ *)

let with_daemon ?(workers = 2) ?(per_client = Harness.Budget.no_limits)
    ?(base_config = B.Config.default) ?max_frame name f =
  let socket_path = Printf.sprintf "tsvc-%s.sock" name in
  let cfg = Service.Daemon.default_config ~socket_path in
  let cfg =
    {
      cfg with
      Service.Daemon.workers;
      per_client;
      base_config;
      max_frame = Option.value ~default:cfg.Service.Daemon.max_frame max_frame;
    }
  in
  let d = Service.Daemon.start cfg in
  Fun.protect ~finally:(fun () -> Service.Daemon.stop d) (fun () -> f d socket_path)

let with_client socket f =
  let c = Service.Client.connect socket in
  Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () -> f c)

let submit_ok ?(what = "submit") conn ~client ?limits ?(format = SP.Anf) text =
  match Service.Client.submit conn ~client ~format ?limits text with
  | Ok (SP.Result (_, s)) -> s
  | Ok (SP.Error_reply { code; message }) ->
      Alcotest.failf "%s: daemon error %s: %s" what code message
  | Ok _ -> Alcotest.failf "%s: unexpected reply" what
  | Error m -> Alcotest.failf "%s: transport error: %s" what m

let expect_error ?(what = "request") code = function
  | Ok (SP.Error_reply e) ->
      Alcotest.(check string) (what ^ ": error code") code e.code
  | Ok _ -> Alcotest.failf "%s: expected %s error, got a success reply" what code
  | Error m -> Alcotest.failf "%s: transport error: %s" what m

let daemon_stat d key =
  match List.assoc_opt key (Service.Daemon.stats d) with
  | Some v -> v
  | None -> Alcotest.failf "daemon stats missing %s" key

let trivial_anf = "x1 + 1\nx1*x2 + x3\n"

(* Random 3-SAT in DIMACS; at ratio ~4.4 any CDCL refutation/solution
   needs well over one conflict, which is what the fair-share test
   relies on. *)
let random_cnf ~vars ~clauses ~seed =
  let rng = Random.State.make [| seed |] in
  let b = Buffer.create 4096 in
  Printf.bprintf b "p cnf %d %d\n" vars clauses;
  for _ = 1 to clauses do
    let rec pick acc k =
      if k = 0 then acc
      else
        let v = 1 + Random.State.int rng vars in
        if List.mem v acc then pick acc k else pick (v :: acc) (k - 1)
    in
    List.iter
      (fun v ->
        Printf.bprintf b "%s%d " (if Random.State.bool rng then "" else "-") v)
      (pick [] 3);
    Buffer.add_string b "0\n"
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* protocol round-trips                                                *)
(* ------------------------------------------------------------------ *)

let sample_summary =
  {
    SP.status = "sat";
    model = Some [ (1, true); (2, false); (7, true) ];
    facts = [ ("propagation", "x1 + 1"); ("XL", "x2*x3 + x4") ];
    iterations = 3;
    sat_calls = 2;
    wall_s = 0.125;
    cache_hit = true;
    session_reused_clauses = 42;
    reused_polys = 5;
    trip =
      Some
        {
          SP.trip_kind = "conflicts";
          trip_layer = "sat";
          trip_detail = "cumulative conflicts 3 >= ceiling 2";
        };
  }

let test_protocol_roundtrip () =
  let requests =
    [
      SP.Submit
        {
          SP.client = "tenant-a";
          format = SP.Anf;
          text = "x1*x2 + x3\nx1 + 1\n";
          wait = true;
          limits =
            {
              Harness.Budget.timeout_s = Some 1.5;
              max_memory_monomials = None;
              max_total_conflicts = Some 100;
            };
        };
      SP.Submit
        {
          SP.client = "";
          format = SP.Cnf;
          text = "p cnf 2 1\n1 -2 0\n";
          wait = false;
          limits = Harness.Budget.no_limits;
        };
      SP.Status 7;
      SP.Cancel 3;
      SP.Stats;
      SP.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match SP.decode_request (SP.encode_request r) with
      | Ok r' -> check "request round-trips" true (r = r')
      | Error m -> Alcotest.failf "request failed to round-trip: %s" m)
    requests;
  let responses =
    [
      SP.Accepted 12;
      SP.Result (3, sample_summary);
      SP.Result
        (4, { sample_summary with SP.model = None; facts = []; trip = None });
      SP.Job_status (5, "queued", None);
      SP.Job_status (6, "done", Some sample_summary);
      SP.Stats_reply [ ("requests", 10.0); ("uptime_s", 1.25) ];
      SP.Error_reply { code = "malformed"; message = "bad JSON: \"quote\"" };
      SP.Bye;
    ]
  in
  List.iter
    (fun r ->
      match SP.decode_response (SP.encode_response r) with
      | Ok r' -> check "response round-trips" true (r = r')
      | Error m -> Alcotest.failf "response failed to round-trip: %s" m)
    responses;
  (match SP.decode_request "{ not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded as a request");
  match SP.decode_request "{\"op\": \"explode\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op decoded as a request"

let test_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      SP.write_frame a "hello";
      (match SP.read_frame b with
      | `Frame s -> Alcotest.(check string) "frame payload" "hello" s
      | _ -> Alcotest.fail "expected a frame");
      (* an oversized frame is drained and reported, and the stream stays
         synchronised for the next frame *)
      SP.write_frame a "0123456789";
      SP.write_frame a "ok";
      (match SP.read_frame ~max_len:4 b with
      | `Oversized n -> Alcotest.(check int) "oversized length" 10 n
      | _ -> Alcotest.fail "expected oversized");
      (match SP.read_frame ~max_len:4 b with
      | `Frame s -> Alcotest.(check string) "frame after drain" "ok" s
      | _ -> Alcotest.fail "expected frame after drain");
      (* a truncated header is EOF, not an exception *)
      let partial = Bytes.of_string "\x00\x00" in
      ignore (Unix.write a partial 0 2);
      Unix.close a;
      match SP.read_frame b with
      | `Eof -> ()
      | _ -> Alcotest.fail "expected EOF on truncated header")

(* ------------------------------------------------------------------ *)
(* hostile peers never kill the daemon                                 *)
(* ------------------------------------------------------------------ *)

let test_malformed_never_kills () =
  with_daemon ~max_frame:4096 "hostile" @@ fun d socket ->
  with_client socket (fun c ->
      (* raw garbage in a well-formed frame *)
      Service.Client.send_raw c "this is not json";
      expect_error ~what:"garbage payload" "malformed"
        (Service.Client.read_response c);
      (* well-formed JSON, nonsense op *)
      Service.Client.send_raw c "{\"op\": \"explode\"}";
      expect_error ~what:"unknown op" "malformed"
        (Service.Client.read_response c);
      (* unparsable instance text *)
      expect_error ~what:"bad ANF" "parse"
        (Service.Client.submit c ~client:"h" ~format:SP.Anf "x1 + garbage + \n");
      (* oversized frame: drained, refused, connection still usable *)
      Service.Client.send_raw c (String.make 8192 'a');
      expect_error ~what:"oversized" "oversized" (Service.Client.read_response c);
      (* operations on unknown jobs *)
      expect_error ~what:"status of unknown job" "unknown-job"
        (Service.Client.status c 999);
      expect_error ~what:"cancel of unknown job" "unknown-job"
        (Service.Client.cancel c 999);
      (* the same connection still solves after all of the above *)
      let s = submit_ok ~what:"post-hostility submit" c ~client:"h" trivial_anf in
      check "daemon still solves" true (s.SP.status <> "degraded"));
  (* a truncated frame (half a header, then hangup) only drops its own
     connection *)
  with_client socket (fun c ->
      Service.Client.send_bytes c "\x00\x00";
      Service.Client.close c);
  with_client socket (fun c ->
      let s = submit_ok ~what:"post-truncation submit" c ~client:"h2" trivial_anf in
      check "daemon alive after truncated peer" true (s.SP.status <> ""));
  check "protocol errors were counted" true (daemon_stat d "protocol_errors" >= 3.0)

(* ------------------------------------------------------------------ *)
(* cache                                                               *)
(* ------------------------------------------------------------------ *)

let strip s = { s with SP.wall_s = 0.0; cache_hit = false }

let test_cache_equivalence () =
  with_daemon "cache" @@ fun d socket ->
  with_client socket @@ fun c ->
  let text = "x1*x2 + x3\nx2*x3 + x1 + 1\nx3*x4 + x5\n" in
  let cold = submit_ok ~what:"cold" c ~client:"ca" text in
  check "cold run misses" false cold.SP.cache_hit;
  (* same text, different tenant: a hit, observationally identical *)
  let warm = submit_ok ~what:"warm" c ~client:"cb" text in
  check "warm run hits" true warm.SP.cache_hit;
  check "hit equals miss (modulo wall/cache flags)" true
    (strip warm = strip cold);
  (* a spelling variant (comments, blank lines) canonicalises to the
     same digest *)
  let variant = "# a comment\n\nx1*x2 + x3\nx2*x3 + x1 + 1\n\nx3*x4 + x5\n" in
  let warm2 = submit_ok ~what:"variant" c ~client:"cc" variant in
  check "spelling variant hits" true warm2.SP.cache_hit;
  check "variant hit equals miss" true (strip warm2 = strip cold);
  check "daemon counted hits" true (daemon_stat d "cache_hits" >= 2.0)

(* ------------------------------------------------------------------ *)
(* session pinning                                                     *)
(* ------------------------------------------------------------------ *)

let test_session_pinning () =
  with_daemon "session" @@ fun d socket ->
  with_client socket @@ fun c ->
  (* hard enough that the SAT stage actually feeds clauses into the
     pinned solver (a system solved outright by propagation/XL pins an
     empty session, which carries nothing) *)
  let s1 =
    "x2*x11 + x5*x7 + x6*x11 + x7*x11 + 1\n\
     x3*x12 + x5*x7 + 1\n\
     x1*x2 + x1*x9 + x6*x10 + x7*x8\n\
     x1*x6 + x1*x8 + x7*x8 + x8*x9 + 1\n\
     x1*x9 + x6*x8 + x9*x12 + x11 + 1\n\
     x2*x12 + x4*x7 + x5*x10 + 1\n\
     x1*x11 + x2*x6 + x5*x8 + x11*x12\n\
     x2*x4 + x2*x10 + x9*x11 + 1\n\
     x2*x3 + x4*x6 + x10*x11 + 1\n\
     x1*x5 + x1*x6 + x3*x10 + x4*x12 + 1\n"
  in
  let s2 = s1 ^ "x1*x2 + x3 + 1\n" in
  let first = submit_ok ~what:"pin first" c ~client:"pin" s1 in
  Alcotest.(check int) "first run is cold" 0 first.SP.session_reused_clauses;
  (* superset of the previous input, same client: the pinned solver and
     conversion state carry over *)
  let second = submit_ok ~what:"pin second" c ~client:"pin" s2 in
  check "second request reuses pinned clauses" true
    (second.SP.session_reused_clauses > 0);
  check "daemon counted the reuse" true (daemon_stat d "session_reuses" >= 1.0);
  (* an unrelated system from the same client silently resets, never errors *)
  let third = submit_ok ~what:"pin third" c ~client:"pin" "x9 + x8\nx8*x9 + 1\n" in
  Alcotest.(check int) "incompatible input runs cold" 0
    third.SP.session_reused_clauses

(* ------------------------------------------------------------------ *)
(* fair-share multi-tenant stress                                      *)
(* ------------------------------------------------------------------ *)

let test_fair_share_stress () =
  (* Per-client conflict ceiling of 1: any job whose SAT rounds need
     >= 1 conflict degrades; jobs solved by propagation alone never do.
     The heavy tenant's random 3-SAT needs far more than one conflict,
     the light tenants' systems need none — so only the heavy tenant
     may degrade, each as a structured reply, never a dropped
     connection. *)
  let per_client =
    {
      Harness.Budget.timeout_s = None;
      max_memory_monomials = None;
      max_total_conflicts = Some 1;
    }
  in
  with_daemon ~workers:4 ~per_client "fair" @@ fun d socket ->
  let hard_cnf = random_cnf ~vars:50 ~clauses:220 ~seed:0xfa15 in
  let results = ref [] in
  let results_m = Mutex.create () in
  let record client s =
    Mutex.lock results_m;
    results := (client, s) :: !results;
    Mutex.unlock results_m
  in
  let light_thread name =
    Thread.create
      (fun () ->
        with_client socket @@ fun c ->
        for _ = 1 to 3 do
          record name (submit_ok ~what:name c ~client:name trivial_anf)
        done)
      ()
  in
  let heavy_thread =
    Thread.create
      (fun () ->
        with_client socket @@ fun c ->
        for _ = 1 to 2 do
          record "heavy"
            (submit_ok ~what:"heavy" c ~client:"heavy" ~format:SP.Cnf hard_cnf)
        done)
      ()
  in
  let threads = [ light_thread "l1"; light_thread "l2"; light_thread "l3"; heavy_thread ] in
  List.iter Thread.join threads;
  let all = !results in
  Alcotest.(check int) "all 11 jobs replied" 11 (List.length all);
  List.iter
    (fun (client, s) ->
      if client = "heavy" then begin
        Alcotest.(check string) "heavy tenant degrades" "degraded" s.SP.status;
        match s.SP.trip with
        | Some t ->
            Alcotest.(check string) "heavy trip kind" "conflicts" t.SP.trip_kind
        | None -> Alcotest.fail "degraded heavy job carries no trip"
      end
      else begin
        check (client ^ " stays within budget") true (s.SP.status <> "degraded");
        check (client ^ " carries no trip") true (s.SP.trip = None)
      end)
    all;
  (* scheduler bookkeeping settles *)
  Alcotest.(check int) "nothing queued" 0 (int_of_float (daemon_stat d "queue_depth"));
  Alcotest.(check int) "nothing running" 0 (int_of_float (daemon_stat d "running"));
  Alcotest.(check int) "nothing failed" 0 (int_of_float (daemon_stat d "failed"))

(* ------------------------------------------------------------------ *)
(* cancellation and shutdown                                           *)
(* ------------------------------------------------------------------ *)

let rec await_terminal c id =
  match Service.Client.status c id with
  | Ok (SP.Job_status (_, ("queued" | "running"), _)) ->
      Thread.delay 0.02;
      await_terminal c id
  | Ok (SP.Job_status (_, state, s)) -> (state, s)
  | Ok _ -> Alcotest.fail "unexpected status reply"
  | Error m -> Alcotest.failf "status transport error: %s" m

let test_cancel_and_shutdown () =
  let socket_path = "tsvc-cancel.sock" in
  let cfg =
    { (Service.Daemon.default_config ~socket_path) with Service.Daemon.workers = 1 }
  in
  let d = Service.Daemon.start cfg in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () -> if not !finished then Service.Daemon.stop d)
    (fun () ->
      with_client socket_path (fun c ->
          (* occupy the single worker, then queue a second job behind it *)
          let slow = random_cnf ~vars:60 ~clauses:260 ~seed:0xcafe in
          let id_a =
            match
              Service.Client.submit c ~client:"v" ~format:SP.Cnf ~wait:false slow
            with
            | Ok (SP.Accepted id) -> id
            | _ -> Alcotest.fail "submit A not accepted"
          in
          let id_b =
            match
              Service.Client.submit c ~client:"v" ~format:SP.Anf ~wait:false
                trivial_anf
            with
            | Ok (SP.Accepted id) -> id
            | _ -> Alcotest.fail "submit B not accepted"
          in
          (* cancel both: B is (almost certainly) still queued, A running;
             all outcomes must be structured and terminal *)
          (match Service.Client.cancel c id_b with
          | Ok (SP.Job_status (_, ("cancelled" | "cancelling" | "done"), _)) -> ()
          | Ok r ->
              Alcotest.failf "unexpected cancel(B) reply: %s"
                (SP.encode_response r)
          | Error m -> Alcotest.failf "cancel(B) transport error: %s" m);
          (match Service.Client.cancel c id_a with
          | Ok (SP.Job_status _) -> ()
          | Ok r ->
              Alcotest.failf "unexpected cancel(A) reply: %s"
                (SP.encode_response r)
          | Error m -> Alcotest.failf "cancel(A) transport error: %s" m);
          let state_a, summary_a = await_terminal c id_a in
          (match (state_a, summary_a) with
          | "done", Some s when s.SP.status = "degraded" -> (
              match s.SP.trip with
              | Some t ->
                  Alcotest.(check string) "cancelled job trips as cancelled"
                    "cancelled" t.SP.trip_kind
              | None -> Alcotest.fail "cancelled degraded job carries no trip")
          | "done", Some _ | "cancelled", None ->
              (* the job beat the cancel, or never started; both are
                 legitimate terminal outcomes *)
              ()
          | state, _ -> Alcotest.failf "job A ended in odd state %s" state);
          let state_b, _ = await_terminal c id_b in
          check "job B reached a terminal state" true
            (state_b = "cancelled" || state_b = "done");
          (* protocol shutdown: Bye, then the daemon drains and exits *)
          match Service.Client.shutdown c with
          | Ok SP.Bye -> ()
          | Ok r ->
              Alcotest.failf "unexpected shutdown reply: %s" (SP.encode_response r)
          | Error m -> Alcotest.failf "shutdown transport error: %s" m);
      Service.Daemon.wait d;
      finished := true;
      check "socket unlinked after shutdown" false (Sys.file_exists socket_path))

(* ------------------------------------------------------------------ *)
(* fault injection: degraded replies carry certifiable partial facts   *)
(* ------------------------------------------------------------------ *)

let origin_of_name = function
  | "propagation" -> B.Facts.Propagation
  | "XL" -> B.Facts.Xl
  | "ElimLin" -> B.Facts.Elimlin
  | "SAT" -> B.Facts.Sat_solver
  | "Groebner" -> B.Facts.Groebner
  | other -> Alcotest.failf "unknown fact origin on the wire: %s" other

let with_fault_injection f =
  Unix.putenv "BOSPHORUS_FAULT_INJECT" "1";
  Fun.protect
    ~finally:(fun () ->
      Harness.Budget.inject_clear ();
      Unix.putenv "BOSPHORUS_FAULT_INJECT" "0")
    f

let test_fault_injection_degraded () =
  with_daemon ~workers:1 "fault" @@ fun _d socket ->
  with_client socket @@ fun c ->
  (* propagation learns x3 = 0 from this system before XL ever runs *)
  let text = "x1 + 1\nx1*x2 + x2 + x3\nx2*x4 + x3*x4 + x5\n" in
  let summary =
    with_fault_injection (fun () ->
        Harness.Budget.inject_trip_after ~layer:"xl" 0;
        submit_ok ~what:"faulted submit" c ~client:"fi" text)
  in
  Alcotest.(check string) "injected fault degrades the reply" "degraded"
    summary.SP.status;
  (match summary.SP.trip with
  | Some t -> Alcotest.(check string) "trip kind" "injected" t.SP.trip_kind
  | None -> Alcotest.fail "degraded reply carries no trip");
  check "partial facts survive the trip" true (summary.SP.facts <> []);
  (* the partial facts certify against the input system: rebuild a
     fact store from the wire and push it through the audit layer *)
  let input = Anf.Anf_io.parse_string text in
  let facts = B.Facts.create () in
  List.iter
    (fun (origin, poly_text) ->
      ignore
        (B.Facts.add facts (origin_of_name origin)
           (Anf.Anf_io.poly_of_string poly_text)))
    summary.SP.facts;
  let outcome =
    {
      B.Driver.status = B.Driver.Degraded;
      anf = input;
      cnf = Cnf.Formula.empty ~nvars:0;
      facts;
      iterations = summary.SP.iterations;
      sat_calls = summary.SP.sat_calls;
      sat_rounds = [];
      trail = None;
      budget_report = None;
    }
  in
  let report = Audit.Certify.certify ~input outcome in
  if not (Audit.Certify.all_certified report) then
    Alcotest.failf "partial facts failed certification:@.%a" Audit.Certify.pp
      report;
  (* the daemon is unharmed: the next request on a fresh budget completes *)
  let after = submit_ok ~what:"post-fault submit" c ~client:"fi2" trivial_anf in
  check "daemon solves after the fault" true (after.SP.status <> "degraded")

(* W workers with portfolio P need W*P + 1 domains; past the runtime's
   limit the daemon refuses before binding or spawning. *)
let test_domain_limit () =
  let socket_path = "tsvc-limit.sock" in
  let cfg = Service.Daemon.default_config ~socket_path in
  let with_widths workers portfolio =
    {
      cfg with
      Service.Daemon.workers;
      base_config = { cfg.Service.Daemon.base_config with Bosphorus.Config.portfolio };
    }
  in
  Alcotest.(check int) "2 x 64 + 1" 129 (Service.Daemon.domains_needed (with_widths 2 64));
  Alcotest.(check int) "64 x 1 + 1" 65 (Service.Daemon.domains_needed (with_widths 64 1));
  check "127 x 1 + 1 fits" true
    (Service.Daemon.check_config (with_widths 127 1) = Ok ());
  check "128 x 1 + 1 is refused" true
    (Result.is_error (Service.Daemon.check_config (with_widths 128 1)));
  (match Service.Daemon.start (with_widths 2 64) with
  | d ->
      Service.Daemon.stop d;
      Alcotest.fail "a daemon past the domain limit started"
  | exception Invalid_argument _ -> ());
  check "socket never bound" false (Sys.file_exists socket_path)

let suite =
  [
    ( "service",
      [
        Alcotest.test_case "protocol/roundtrip" `Quick test_protocol_roundtrip;
        Alcotest.test_case "protocol/framing" `Quick test_framing;
        Alcotest.test_case "daemon/hostile-peers" `Quick test_malformed_never_kills;
        Alcotest.test_case "daemon/cache-equivalence" `Quick test_cache_equivalence;
        Alcotest.test_case "daemon/session-pinning" `Quick test_session_pinning;
        Alcotest.test_case "daemon/fair-share-stress" `Quick test_fair_share_stress;
        Alcotest.test_case "daemon/cancel-and-shutdown" `Quick
          test_cancel_and_shutdown;
        Alcotest.test_case "daemon/fault-injection" `Quick
          test_fault_injection_degraded;
        Alcotest.test_case "daemon/domain-limit" `Quick test_domain_limit;
      ] );
  ]
