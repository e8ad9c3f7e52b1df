(* Tests for the unified resource budgets (Harness.Budget), cooperative
   cancellation of pinned tasks (Runtime.Pool.Cancel), the fault-injection hook, and
   the driver's graceful Degraded degradation. *)

module Budget = Harness.Budget
module Pool = Runtime.Pool
module B = Bosphorus
module P = Anf.Poly

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let trip_kind_of = function
  | Budget.Tripped t -> Some t.Budget.kind
  | _ -> None

let expect_trip name expected f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a trip" name
  | exception e ->
      check name true (trip_kind_of e = Some expected)

(* ------------------------------------------------------------------ *)
(* Budget ceilings                                                     *)
(* ------------------------------------------------------------------ *)

let test_unlimited_never_trips () =
  let b = Budget.unlimited () in
  check "unlimited is not limited" false (Budget.is_limited b);
  for _ = 1 to 10_000 do
    Budget.poll b ~layer:"test";
    Budget.check b ~layer:"test"
  done;
  check "no trip" true (Budget.tripped b = None);
  check "not cancelled" false (Budget.cancelled b);
  let r = Budget.report b in
  check "report has no trip" true (r.Budget.trip = None);
  check "wall clock non-negative" true (r.Budget.wall_s >= 0.0)

let test_memory_trip () =
  let b = Budget.create ~max_memory_monomials:100 () in
  check "limited" true (Budget.is_limited b);
  Budget.set_cells b 100;
  Budget.check b ~layer:"xl" (* at the ceiling is still fine *);
  Budget.set_cells b 101;
  expect_trip "gauge over ceiling trips Memory" Budget.Memory (fun () ->
      Budget.check b ~layer:"xl");
  check "token set" true (Budget.cancelled b);
  (match Budget.tripped b with
  | Some t ->
      check "layer recorded" true (t.Budget.layer = "xl");
      check "kind recorded" true (t.Budget.kind = Budget.Memory)
  | None -> Alcotest.fail "trip not recorded");
  (* the peak survives later gauge updates *)
  Budget.set_cells b 7;
  check_int "peak retained" 101 (Budget.report b).Budget.cells_peak

let test_conflict_trip () =
  let b = Budget.create ~max_total_conflicts:10 () in
  Budget.charge_conflicts b ~layer:"sat" 4;
  check "remaining 6" true (Budget.remaining_conflicts b = Some 6);
  Budget.charge_conflicts b ~layer:"sat" 5;
  check "remaining 1" true (Budget.remaining_conflicts b = Some 1);
  expect_trip "reaching the ceiling trips Conflicts" Budget.Conflicts (fun () ->
      Budget.charge_conflicts b ~layer:"sat" 1);
  check_int "conflicts accounted" 10 (Budget.conflicts_used b);
  check "remaining clipped at 0" true (Budget.remaining_conflicts b = Some 0)

let test_deadline_trip () =
  let b = Budget.create ~timeout_s:0.02 () in
  (match Budget.remaining_time_s b with
  | Some r -> check "remaining time at most the timeout" true (r <= 0.02)
  | None -> Alcotest.fail "deadline not configured");
  Unix.sleepf 0.03;
  expect_trip "passed deadline trips Time" Budget.Time (fun () ->
      Budget.check b ~layer:"driver");
  check "remaining time clipped at 0" true (Budget.remaining_time_s b = Some 0.0)

let test_loop_timeout_reserve () =
  (* 25% of the budget is kept for finalization, at most 1 s of it *)
  let eq name want got = Alcotest.(check (float 1e-9)) name want got in
  eq "0.5 s keeps 25%" 0.375 (Budget.loop_timeout_s 0.5);
  eq "2 s keeps 25%" 1.5 (Budget.loop_timeout_s 2.0);
  eq "10 s keeps the 1 s cap" 9.0 (Budget.loop_timeout_s 10.0)

let test_first_trip_wins () =
  (* both ceilings violated: the first check records Memory (checked
     before the clock); later checks re-raise that same trip *)
  let b = Budget.create ~timeout_s:0.005 ~max_memory_monomials:10 () in
  Budget.set_cells b 11;
  Unix.sleepf 0.01;
  expect_trip "memory checked first" Budget.Memory (fun () ->
      Budget.check b ~layer:"a");
  expect_trip "recorded trip replayed" Budget.Memory (fun () ->
      Budget.check b ~layer:"b");
  (match Budget.tripped b with
  | Some t -> check "original layer kept" true (t.Budget.layer = "a")
  | None -> Alcotest.fail "no trip")

(* ------------------------------------------------------------------ *)
(* Poll amortization                                                   *)
(* ------------------------------------------------------------------ *)

let test_poll_amortization () =
  let b = Budget.create ~poll_every:64 () in
  for _ = 1 to 640 do
    Budget.poll b ~layer:"test"
  done;
  check_int "one full check per window" 10 (Budget.full_checks b);
  (* direct checks are never amortized *)
  Budget.check b ~layer:"test";
  check_int "check is always full" 11 (Budget.full_checks b)

let test_poll_detects_within_window () =
  (* the ceiling is crossed mid-window: the trip lands on the window
     boundary, never later *)
  let b = Budget.create ~max_memory_monomials:5 ~poll_every:32 () in
  Budget.set_cells b 6;
  let polls = ref 0 in
  (try
     for _ = 1 to 100 do
       incr polls;
       Budget.poll b ~layer:"test"
     done;
     Alcotest.fail "poll never tripped"
   with Budget.Tripped _ -> ());
  check_int "tripped exactly at the window boundary" 32 !polls

let test_poll_never_skips_recorded_trip () =
  (* once a trip is recorded (here via a direct check), every subsequent
     poll raises immediately — the amortization counter cannot delay it *)
  let b = Budget.create ~max_memory_monomials:5 ~poll_every:1024 () in
  Budget.set_cells b 6;
  (try Budget.check b ~layer:"test" with Budget.Tripped _ -> ());
  check "trip recorded" true (Budget.tripped b <> None);
  let raised = ref 0 in
  for _ = 1 to 5 do
    try Budget.poll b ~layer:"test" with Budget.Tripped _ -> incr raised
  done;
  check_int "every poll after the trip raises" 5 !raised

let test_poll_quiet () =
  let b = Budget.create ~max_memory_monomials:5 () in
  check "within budget" false (Budget.poll_quiet b ~layer:"sat");
  Budget.set_cells b 6;
  check "tripped" true (Budget.poll_quiet b ~layer:"sat");
  check "still true afterwards" true (Budget.poll_quiet b ~layer:"sat")

(* ------------------------------------------------------------------ *)
(* Timing / Perf monotonicity                                          *)
(* ------------------------------------------------------------------ *)

let test_timing_monotonic () =
  let (), s1 = Harness.Timing.time (fun () -> ()) in
  check "elapsed non-negative" true (s1 >= 0.0);
  let (), s2 = Harness.Timing.time (fun () -> Unix.sleepf 0.01) in
  check "sleep measured" true (s2 >= 0.009);
  let c1 = Harness.Timing.process_cpu () in
  (* burn a little CPU *)
  let acc = ref 0 in
  for i = 0 to 2_000_000 do
    acc := !acc + i
  done;
  Sys.opaque_identity !acc |> ignore;
  let c2 = Harness.Timing.process_cpu () in
  check "process cpu monotonic" true (c2 >= c1)

let test_perf_counters () =
  (* allocate well past one minor heap, so promotion and collections
     happen inside the measured section *)
  let _, c =
    Harness.Perf.measure (fun () ->
        let r = ref [] in
        for i = 0 to 1_000_000 do
          r := Some i :: !r;
          if i land 0xffff = 0 then r := []
        done;
        Sys.opaque_identity !r)
  in
  check "wall non-negative" true (c.Harness.Perf.wall_s >= 0.0);
  check "allocation observed" true (c.Harness.Perf.minor_words > 0.0);
  let z = Harness.Perf.zero in
  let sum = Harness.Perf.add c z in
  check "add zero is identity" true (sum = c)

(* ------------------------------------------------------------------ *)
(* Pool cancellation                                                   *)
(* ------------------------------------------------------------------ *)

let test_cancel_before_start () =
  List.iter
    (fun n ->
      let tok = Pool.Cancel.create () in
      Pool.Cancel.set tok;
      let started = Atomic.make 0 in
      let results =
        Pool.run_pinned ~cancel:tok
          (List.init n (fun i () ->
               Atomic.incr started;
               i))
      in
      List.iter
        (function
          | Error Pool.Cancelled -> ()
          | Ok _ | Error _ -> Alcotest.fail "every slot must report Cancelled")
        results;
      check_int (Printf.sprintf "%d tasks: no task ran despite a pre-set token" n) 0
        (Atomic.get started))
    [ 1; 4 ]

let test_cancel_mid_run_no_lost_futures () =
  (* the first task sets the token; the rest either never start
     (Cancelled) or observe the token cooperatively and finish.  Every
     future must be joined before [run_pinned] returns: no started task
     may still be running afterwards. *)
  let tok = Pool.Cancel.create () in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let results =
    Pool.run_pinned ~cancel:tok
      (List.init 4 (fun i () ->
           Atomic.incr started;
           if i = 0 then Pool.Cancel.set tok
           else
             while not (Pool.Cancel.is_set tok) do
               Domain.cpu_relax ()
             done;
           Atomic.incr finished;
           i))
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> check_int "slot result" i v
      | Error Pool.Cancelled -> check "a skipped slot is not the first" true (i > 0)
      | Error e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e))
    results;
  check "first slot ran" true (Atomic.get started >= 1);
  check_int "every started task finished before run_pinned returned" (Atomic.get started)
    (Atomic.get finished)

let test_budget_trip_cancels_pool_stress () =
  (* 4-domain stress: one task trips a shared budget; siblings poll it
     and stop; the caller joins every slot without deadlocking and the
     tripping slot reports the trip (a slot skipped before it starts
     reports Cancelled) *)
  for round = 0 to 9 do
    let b = Budget.create ~max_memory_monomials:10 () in
    let started = Atomic.make 0 and finished = Atomic.make 0 in
    let tripper = round mod 4 in
    let results =
      Pool.run_pinned
        ~cancel:(Budget.cancel_token b)
        (List.init 4 (fun i () ->
             Atomic.incr started;
             Fun.protect ~finally:(fun () -> Atomic.incr finished) @@ fun () ->
             if i = tripper then begin
               Budget.set_cells b 11;
               Budget.check b ~layer:"stress";
               0
             end
             else begin
               (* cooperative worker: poll until the trip propagates *)
               let n = ref 0 in
               (try
                  while !n < 1_000_000 do
                    incr n;
                    Budget.poll b ~layer:"stress"
                  done
                with Budget.Tripped _ -> ());
               !n
             end))
    in
    check "the tripping slot reports its failure" true
      (match List.nth results tripper with
      | Error (Budget.Tripped _ | Pool.Cancelled) -> true
      | Ok _ | Error _ -> false);
    check_int "every started slot finished" (Atomic.get started) (Atomic.get finished);
    check "budget tripped" true (Budget.tripped b <> None);
    check "token observed" true (Budget.cancelled b)
  done

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let with_fault_injection f =
  Unix.putenv "BOSPHORUS_FAULT_INJECT" "1";
  Fun.protect
    ~finally:(fun () ->
      Budget.inject_clear ();
      Unix.putenv "BOSPHORUS_FAULT_INJECT" "0")
    f

let test_injection_gated_off () =
  Unix.putenv "BOSPHORUS_FAULT_INJECT" "0";
  Budget.inject_trip_after 0;
  let b = Budget.unlimited () in
  Budget.check b ~layer:"x";
  check "inert unless env-gated on" true (Budget.tripped b = None)

let test_injection_exact_check () =
  with_fault_injection (fun () ->
      Budget.inject_trip_after 2;
      let b = Budget.unlimited () in
      Budget.check b ~layer:"x";
      Budget.check b ~layer:"x";
      expect_trip "fires on the armed check, not later" Budget.Injected
        (fun () -> Budget.check b ~layer:"x");
      (* the countdown is consumed: a fresh budget is unaffected *)
      let b2 = Budget.unlimited () in
      Budget.check b2 ~layer:"x";
      check "one-shot" true (Budget.tripped b2 = None))

let test_injection_layer_filter () =
  with_fault_injection (fun () ->
      Budget.inject_trip_after ~layer:"elimlin" 0;
      let b = Budget.unlimited () in
      Budget.check b ~layer:"xl";
      Budget.check b ~layer:"sat";
      check "non-matching layers pass" true (Budget.tripped b = None);
      expect_trip "matching layer fires" Budget.Injected (fun () ->
          Budget.check b ~layer:"elimlin"))

let test_injection_clear () =
  with_fault_injection (fun () ->
      Budget.inject_trip_after 0;
      Budget.inject_clear ();
      let b = Budget.unlimited () in
      Budget.check b ~layer:"x";
      check "cleared injection never fires" true (Budget.tripped b = None))

(* ------------------------------------------------------------------ *)
(* Driver degradation under injected faults                            *)
(* ------------------------------------------------------------------ *)

let poly = Anf.Anf_io.poly_of_string

let paper_system () =
  List.map poly
    [
      "x1*x2 + x3 + x4 + 1";
      "x1*x2*x3 + x1 + x3 + 1";
      "x1*x3 + x3*x4*x5 + x3";
      "x2*x3 + x3*x5 + 1";
      "x2*x3 + x5 + 1";
    ]

let fault_config =
  {
    B.Config.default with
    B.Config.stop_on_solution = false;
    audit_trail = true;
  }

let run_fault_in_layer ~layer =
  with_fault_injection (fun () ->
      Budget.inject_trip_after ~layer 0;
      let input = paper_system () in
      let outcome = B.Driver.run ~config:fault_config input in
      Budget.inject_clear ();
      check (layer ^ ": degraded") true (outcome.B.Driver.status = B.Driver.Degraded);
      (match outcome.B.Driver.budget_report with
      | Some { Budget.trip = Some t; _ } ->
          check (layer ^ ": injected kind") true (t.Budget.kind = Budget.Injected);
          check (layer ^ ": trip layer") true (t.Budget.layer = layer)
      | Some { Budget.trip = None; _ } | None ->
          Alcotest.failf "%s: Degraded outcome must carry its trip" layer);
      (* the partial fact set must still be certifiable against the input *)
      let r = Audit.Certify.certify ~input outcome in
      check (layer ^ ": partial facts certified") true (Audit.Certify.all_certified r))

let test_fault_each_layer () =
  List.iter (fun layer -> run_fault_in_layer ~layer)
    [ "driver"; "xl"; "elimlin"; "sat" ]

let test_fault_later_iteration () =
  (* arm the countdown so the trip lands mid-run rather than on the first
     check: facts learnt before it must survive into the outcome *)
  with_fault_injection (fun () ->
      Budget.inject_trip_after ~layer:"sat" 1;
      let input = paper_system () in
      let outcome = B.Driver.run ~config:fault_config input in
      Budget.inject_clear ();
      check "degraded" true (outcome.B.Driver.status = B.Driver.Degraded);
      let r = Audit.Certify.certify ~input outcome in
      check "facts before the fault certified" true (Audit.Certify.all_certified r))

(* ------------------------------------------------------------------ *)
(* Driver budget ceilings end-to-end                                   *)
(* ------------------------------------------------------------------ *)

let test_driver_conflict_ceiling () =
  (* a conflict-heavy instance: the cumulative account must respect the
     ceiling exactly because it charges solver-reported counts *)
  let f = Problems.Generators.pigeonhole ~holes:6 in
  let ceiling = 40 in
  let config =
    {
      B.Config.default with
      B.Config.stop_on_solution = false;
      max_total_conflicts = Some ceiling;
      sat_budget_start = 1_000;
      max_iterations = 8;
    }
  in
  let outcome = B.Driver.run_cnf ~config f in
  match outcome.B.Driver.budget_report with
  | None -> Alcotest.fail "limited run must carry a budget report"
  | Some r ->
      check "cumulative conflicts within ceiling" true
        (r.Budget.conflicts_used <= ceiling);
      (* per-round deltas must sum to the cumulative account *)
      let summed =
        List.fold_left
          (fun a (ri : B.Driver.round_info) -> a + ri.B.Driver.round_conflicts)
          0 outcome.B.Driver.sat_rounds
      in
      check_int "round deltas sum to the account" r.Budget.conflicts_used summed

let test_driver_memory_ceiling () =
  let input = paper_system () in
  let config =
    {
      B.Config.default with
      B.Config.stop_on_solution = false;
      audit_trail = true;
      max_memory_monomials = Some 8 (* the master alone exceeds this *);
    }
  in
  let outcome = B.Driver.run ~config input in
  check "degraded" true (outcome.B.Driver.status = B.Driver.Degraded);
  (match outcome.B.Driver.budget_report with
  | Some { Budget.trip = Some t; _ } ->
      check "memory trip" true (t.Budget.kind = Budget.Memory)
  | _ -> Alcotest.fail "expected a memory trip");
  let r = Audit.Certify.certify ~input outcome in
  check "facts certified" true (Audit.Certify.all_certified r)

let test_driver_timeout_terminates () =
  (* an effectively-zero wall budget still returns (degraded), quickly *)
  let input = paper_system () in
  let config =
    { B.Config.default with B.Config.timeout_s = Some 1e-6; stop_on_solution = false }
  in
  let outcome, secs = Harness.Timing.time (fun () -> B.Driver.run ~config input) in
  check "terminates fast" true (secs < 5.0);
  check "degraded" true (outcome.B.Driver.status = B.Driver.Degraded)

let test_unbudgeted_has_no_report () =
  let outcome = B.Driver.run (paper_system ()) in
  check "unbounded untripped run reports nothing" true
    (outcome.B.Driver.budget_report = None)

let suite =
  [
    ( "harness.budget",
      [
        Alcotest.test_case "unlimited never trips" `Quick test_unlimited_never_trips;
        Alcotest.test_case "memory ceiling" `Quick test_memory_trip;
        Alcotest.test_case "conflict ceiling" `Quick test_conflict_trip;
        Alcotest.test_case "wall-clock deadline" `Quick test_deadline_trip;
        Alcotest.test_case "finalization reserve" `Quick test_loop_timeout_reserve;
        Alcotest.test_case "first trip wins" `Quick test_first_trip_wins;
        Alcotest.test_case "poll amortization" `Quick test_poll_amortization;
        Alcotest.test_case "poll trips at window boundary" `Quick
          test_poll_detects_within_window;
        Alcotest.test_case "poll never skips a recorded trip" `Quick
          test_poll_never_skips_recorded_trip;
        Alcotest.test_case "poll_quiet" `Quick test_poll_quiet;
        Alcotest.test_case "timing monotonic" `Quick test_timing_monotonic;
        Alcotest.test_case "perf counters" `Quick test_perf_counters;
      ] );
    ( "runtime.cancel",
      [
        Alcotest.test_case "pre-set token skips tasks" `Quick test_cancel_before_start;
        Alcotest.test_case "mid-run cancel loses no futures" `Quick
          test_cancel_mid_run_no_lost_futures;
        Alcotest.test_case "budget trip cancels pool (stress)" `Quick
          test_budget_trip_cancels_pool_stress;
      ] );
    ( "harness.fault",
      [
        Alcotest.test_case "env-gated off" `Quick test_injection_gated_off;
        Alcotest.test_case "fires on the exact check" `Quick test_injection_exact_check;
        Alcotest.test_case "layer filter" `Quick test_injection_layer_filter;
        Alcotest.test_case "inject_clear disarms" `Quick test_injection_clear;
        Alcotest.test_case "driver: trip each layer" `Quick test_fault_each_layer;
        Alcotest.test_case "driver: mid-run fault keeps earlier facts" `Quick
          test_fault_later_iteration;
      ] );
    ( "bosphorus.budget",
      [
        Alcotest.test_case "conflict ceiling end-to-end" `Quick
          test_driver_conflict_ceiling;
        Alcotest.test_case "memory ceiling end-to-end" `Quick test_driver_memory_ceiling;
        Alcotest.test_case "zero timeout still terminates" `Quick
          test_driver_timeout_terminates;
        Alcotest.test_case "unbudgeted run carries no report" `Quick
          test_unbudgeted_has_no_report;
      ] );
  ]
