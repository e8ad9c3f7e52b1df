(* perfbench: the repository benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   builds the instances of workload W (anf-cipher, cnf-suite or
   service-mix) from seed N, then runs passes over the whole instance set
   through the library's public entry points for about S seconds: a pass
   starts only if one more would still end within S.
   Every pass checks every verdict; a wrong verdict, or exact-repeat
   counts that differ between passes, or a wall-clock limit that binds,
   makes the run exit 1.

   With --trace 0 every pass is untraced and the result holds the
   end-to-end metrics.  With --trace 1 untraced and traced passes
   alternate and the result holds the per-layer split, read off the
   program's own Obs.Trace spans and Obs.Metrics counters plus the
   benchmark's spans around its own calls, and the trace overhead.

   End-to-end metrics (medians over the untraced passes):
     wall_s          one pass over the instance set or request stream
     decided_ratio   instances or requests decided and verified, over attempted
     peak_rss_mb     process peak RSS through set-up and the first pass
     rps             instances or requests per second of one pass
     latency_p50_ms  per-instance or per-request latency, median
     latency_p99_ms  service: p99 of the 1000 requests (10 beyond it);
                     offline: the slowest instance
                     (each instance or request at its median over the passes)
     setup_s         median over repeated set-ups (generation, daemon start)

   Output: a summary line (host_domains, nproc, pass walls, percentile
   level, exact-repeat counts), then one JSON line
   {"correct", "attempted", "failed", "metrics"}. *)

open Perfbench
module D = Bosphorus.Driver
module F = Bosphorus.Facts
module W = Workloads

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* settings                                                            *)
(* ------------------------------------------------------------------ *)

(* The Table II bench's bounded preprocessing, at jobs = 1.  No
   wall-clock limit can bind: the only one in the loop, ElimLin's
   [stage_time_s], sits far above the slowest pass, so the conflict
   budgets alone fix the work. *)
let driver_config =
  {
    Bosphorus.Config.default with
    Bosphorus.Config.max_iterations = 2;
    sat_budget_start = 2_000;
    sat_budget_max = 8_000;
    sat_budget_step = 3_000;
    stop_on_solution = true;
    stage_time_s = 120.0;
    jobs = 1;
  }

let final_conflicts = 100_000
let final_time_s = 120.0

(* Set-up repeats at least [setup_min_reps] times and until its runs add
   up to [setup_min_s], so a set-up of a few milliseconds still gives a
   steady median; [setup_max_reps] caps the repeats. *)
let setup_min_reps = 9
let setup_max_reps = 300
let setup_min_s = 0.5

(* The daemon serves the library defaults, one worker domain (a
   2-core host cannot give a second worker its own core), and a cache
   large enough that no entry is ever evicted, so hits repeat exactly. *)
let daemon_config socket_path =
  {
    (Service.Daemon.default_config ~socket_path) with
    Service.Daemon.workers = 1;
    base_config = { Bosphorus.Config.default with Bosphorus.Config.stage_time_s = 120.0 };
    cache_capacity = 4096;
  }

let socket_path = Printf.sprintf "perfbench-%d.sock" (Unix.getpid ())

(* ------------------------------------------------------------------ *)
(* one pass                                                            *)
(* ------------------------------------------------------------------ *)

(* Exact-repeat counts: identical on every pass of one seed.
   [budget_trips] is always present and must stay 0: a wall-clock limit
   that binds would make the work depend on the host's speed. *)
module Counts = struct
  type t = (string, int) Hashtbl.t

  let create () : t =
    let t = Hashtbl.create 16 in
    Hashtbl.replace t "budget_trips" 0;
    t
  let add (t : t) k v = Hashtbl.replace t k (v + Option.value ~default:0 (Hashtbl.find_opt t k))
  let get (t : t) k = Option.value ~default:0 (Hashtbl.find_opt t k)
  let to_list (t : t) = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
end

type pass = {
  wall_s : float;
  latencies_s : float list;  (** per instance or request *)
  attempted : int;
  failed : int;  (** undecided, degraded or failed *)
  wrong : string list;  (** verdicts that fail their check *)
  counts : Counts.t;
  replies : Latency.reply list;  (** service-mix only *)
}

let span name f = Obs.Trace.with_span ~name f
let fact_key origin = "facts." ^ String.lowercase_ascii (F.origin_name origin)

let count_outcome c (o : D.outcome) ~wall_s =
  List.iter
    (fun origin -> Counts.add c (fact_key origin) (F.count_by o.D.facts origin))
    [ F.Propagation; F.Xl; F.Elimlin; F.Sat_solver; F.Groebner ];
  Counts.add c "iterations" o.D.iterations;
  List.iter
    (fun (r : D.round_info) ->
      Counts.add c "loop.conflicts" r.D.round_conflicts;
      Counts.add c "loop.propagations" r.D.round_propagations;
      Counts.add c "clauses" r.D.round_delta_clauses)
    o.D.sat_rounds;
  let tripped =
    match o.D.budget_report with
    | Some { Harness.Budget.trip = Some _; _ } -> true
    | _ -> false
  in
  if tripped || wall_s >= driver_config.Bosphorus.Config.stage_time_s then
    Counts.add c "budget_trips" 1

(* A final solve under [profile]: its result, counted, with a time trip
   recorded if it ran into [final_time_s]. *)
let final_solve c profile f =
  let (out : Sat.Profiles.output), secs =
    Harness.Timing.time (fun () ->
        Sat.Profiles.solve ~conflict_budget:final_conflicts ~time_budget_s:final_time_s
          profile f)
  in
  Counts.add c "final.solves" 1;
  if secs >= final_time_s then Counts.add c "budget_trips" 1;
  (match out.Sat.Profiles.stats with
  | Some s ->
      Counts.add c "final.conflicts" s.Sat.Types.conflicts;
      Counts.add c "final.propagations" s.Sat.Types.propagations
  | None -> ());
  out.Sat.Profiles.result

let lookup model v = Option.value ~default:false (List.assoc_opt v model)
let in_array model v = v < Array.length model && model.(v)

(* Runs [f] over the instances, timing each and the whole; [f] returns a
   check to run once the clock has stopped.  A check returns [`Ok],
   [`Undecided] or [`Wrong reason]. *)
let offline_pass ~name_of items f =
  let c = Counts.create () in
  let t0 = now () in
  let timed =
    List.map
      (fun item ->
        let s0 = now () in
        let check = f c item in
        (item, check, now () -. s0))
      items
  in
  let wall_s = now () -. t0 in
  let failed = ref 0 and wrong = ref [] in
  List.iter
    (fun (item, check, _) ->
      match check () with
      | `Ok -> ()
      | `Undecided -> incr failed
      | `Wrong why -> wrong := Printf.sprintf "%s: %s" (name_of item) why :: !wrong)
    timed;
  {
    wall_s;
    latencies_s = List.map (fun (_, _, s) -> s) timed;
    attempted = List.length items;
    failed = !failed;
    wrong = List.rev !wrong;
    counts = c;
    replies = [];
  }

(* anf-cipher: Driver.run, then a MiniSat-profile solve of the processed
   CNF when the loop leaves the instance undecided.  Every instance has a
   solution by construction; each model must satisfy the equations. *)
let cipher_pass instances () =
  offline_pass ~name_of:(fun (i : W.cipher) -> i.W.cname) instances (fun c inst ->
      let eqs = inst.W.equations in
      let o, wall_s = Harness.Timing.time (fun () ->
          span "bench.driver_run" (fun () -> D.run ~config:driver_config eqs)) in
      count_outcome c o ~wall_s;
      let model_check sat = if sat then `Ok else `Wrong "model violates the equations" in
      match o.D.status with
      | D.Solved_sat m -> fun () -> model_check (Anf.Eval.satisfies (lookup m) eqs)
      | D.Solved_unsat -> fun () -> `Wrong "UNSAT for a satisfiable instance"
      | D.Processed | D.Degraded -> (
          match
            span "bench.final_solve" (fun () -> final_solve c Sat.Profiles.Minisat o.D.cnf)
          with
          | Sat.Types.Sat model -> fun () -> model_check (Anf.Eval.satisfies (in_array model) eqs)
          | Sat.Types.Unsat -> fun () -> `Wrong "final solve: UNSAT for a satisfiable instance"
          | Sat.Types.Undecided -> fun () -> `Undecided))

(* A direct solve of the original formula, for the verdicts no generator
   fixes.  Untimed. *)
let oracle (inst : W.cnf) =
  match inst.W.expect with
  | W.Sat | W.Unsat -> inst.W.expect
  | W.Open -> (
      match (Sat.Profiles.solve Sat.Profiles.Minisat inst.W.formula).Sat.Profiles.result with
      | Sat.Types.Sat _ -> W.Sat
      | Sat.Types.Unsat -> W.Unsat
      | Sat.Types.Undecided -> W.Open)

(* cnf-suite: the benchmark's own Cnf_to_anf.convert (the span the
   library lacks), Driver.run_cnf, then Driver.augmented_cnf solved under
   all three profiles when the loop leaves the instance undecided. *)
let cnf_pass instances () =
  offline_pass ~name_of:(fun ((i : W.cnf), _) -> i.W.fname) instances (fun c (inst, expect) ->
      let f = inst.W.formula in
      let conv =
        span "bench.cnf_to_anf" (fun () -> Bosphorus.Cnf_to_anf.convert ~config:driver_config f)
      in
      Counts.add c "cnf_to_anf.polys" (List.length conv.Bosphorus.Cnf_to_anf.polys);
      let o, wall_s = Harness.Timing.time (fun () ->
          span "bench.driver_run" (fun () -> D.run_cnf ~config:driver_config f)) in
      count_outcome c o ~wall_s;
      let results =
        match o.D.status with
        | D.Solved_sat m -> [ Sat.Types.Sat (Array.init (Cnf.Formula.nvars f) (lookup m)) ]
        | D.Solved_unsat -> [ Sat.Types.Unsat ]
        | D.Processed | D.Degraded ->
            span "bench.final_solve" (fun () ->
                let aug = D.augmented_cnf f o in
                List.map (fun p -> final_solve c p aug) Sat.Profiles.all)
      in
      fun () ->
        let sat = List.exists (function Sat.Types.Sat _ -> true | _ -> false) results
        and unsat = List.mem Sat.Types.Unsat results in
        let bad_model =
          List.exists
            (function Sat.Types.Sat m -> not (Cnf.Formula.eval (in_array m) f) | _ -> false)
            results
        in
        if bad_model then `Wrong "model violates the formula"
        else if sat && unsat then `Wrong "profiles disagree"
        else if sat && expect = W.Unsat then `Wrong "SAT, expected UNSAT"
        else if unsat && expect = W.Sat then `Wrong "UNSAT, expected SAT"
        else if sat || unsat then `Ok
        else `Undecided)

(* service-mix: one daemon per pass (started before the clock), one
   closed-loop client thread per tenant. *)
let service_pass streams () =
  let daemon = Service.Daemon.start (daemon_config socket_path) in
  Fun.protect ~finally:(fun () -> Service.Daemon.stop daemon) @@ fun () ->
  let out = List.map (fun s -> Array.make (List.length s) None) streams in
  let tenant t stream () =
    let conn = Service.Client.connect socket_path in
    Fun.protect ~finally:(fun () -> Service.Client.close conn) @@ fun () ->
    List.iteri
      (fun j (req : W.request) ->
        let s0 = now () in
        let reply =
          Service.Client.submit conn ~client:(Printf.sprintf "tenant-%d" t)
            ~format:Service.Protocol.Anf req.W.text
        in
        (List.nth out t).(j) <- Some (reply, now () -. s0))
      stream
  in
  let t0 = now () in
  List.iter Thread.join (List.mapi (fun t s -> Thread.create (tenant t s) ()) streams);
  let wall_s = now () -. t0 in
  let stats =
    let conn = Service.Client.connect socket_path in
    Fun.protect ~finally:(fun () -> Service.Client.close conn) @@ fun () ->
    match Service.Client.stats conn with Ok s -> s | Error _ -> []
  in
  let c = Counts.create () in
  let seen = Hashtbl.create 64 in
  let failed = ref 0 and wrong = ref [] and latencies = ref [] and replies = ref [] in
  let bad (req : W.request) why =
    wrong := Printf.sprintf "system %d: %s" req.W.system why :: !wrong
  in
  List.iter2
    (fun stream results ->
      List.iteri
        (fun j (req : W.request) ->
          (* every request has a latency, in stream order, so passes line
             up request by request; one that never returned counts the
             whole pass *)
          latencies := Option.fold ~none:wall_s ~some:snd results.(j) :: !latencies;
          match results.(j) with
          | Some (Ok (Service.Protocol.Result (_, (s : Service.Protocol.summary))), latency_s) ->
              replies :=
                { Latency.latency_s; compute_s = s.wall_s; cache_hit = s.cache_hit } :: !replies;
              if s.cache_hit then Counts.add c "cache.hits" 1;
              if s.trip <> None then Counts.add c "budget_trips" 1;
              Counts.add c "iterations" s.iterations;
              List.iter
                (fun (origin, _) -> Counts.add c ("facts." ^ String.lowercase_ascii origin) 1)
                s.facts;
              (match (s.status, s.model) with
              | "sat", Some m ->
                  if not (Anf.Eval.satisfies (lookup m) req.W.polys) then
                    bad req "model violates the system"
              | "unsat", _ -> ()
              | _ -> incr failed);
              (* every reply for a repeated system matches the first *)
              (match Hashtbl.find_opt seen req.W.system with
              | None -> Hashtbl.replace seen req.W.system (s.status, s.facts)
              | Some first ->
                  if first <> (s.status, s.facts) then bad req "repeat reply differs")
          | Some _ | None -> incr failed)
        stream)
    streams out;
  let stat k = int_of_float (Option.value ~default:(-1.0) (List.assoc_opt k stats)) in
  if stat "cache_hits" <> Counts.get c "cache.hits" then
    wrong := "stats RPC cache_hits disagrees with the replies" :: !wrong;
  {
    wall_s;
    latencies_s = !latencies;
    attempted = List.fold_left (fun a s -> a + List.length s) 0 streams;
    failed = !failed;
    wrong = List.rev !wrong;
    counts = c;
    replies = !replies;
  }

(* ------------------------------------------------------------------ *)
(* per-layer split                                                     *)
(* ------------------------------------------------------------------ *)

let under name (sp : Selftime.span) = sp.Selftime.name = name || List.mem name sp.Selftime.ancestors
let named names (sp : Selftime.span) = List.mem sp.Selftime.name names
let final = under "bench.final_solve"

(* Layers by span name; disjoint, so their self times add up. *)
let layers =
  [
    ("elimlin", named [ "elimlin.run" ]);
    ("elimlin.gje", named [ "elimlin.gje" ]);
    ("anf_prop", named [ "driver.propagate" ]);
    ("driver.absorb", named [ "driver.absorb_facts" ]);
    ("xl.expand", named [ "xl.expand_chunk" ]);
    ("xl.reduce", named [ "xl.linearize_reduce" ]);
    ("linearize", named [ "linearize.build"; "linearize.hash_chunk" ]);
    ("anf_to_cnf", named [ "driver.sat_round"; "driver.emit_cnf" ]);
    ("cnf_to_anf", named [ "bench.cnf_to_anf" ]);
    ("sat.loop", fun sp -> named [ "sat.solve"; "sat.reduce_db"; "sat.arena_gc" ] sp && not (final sp));
    ("sat.final", final);
  ]

let per_layer ~offline (p : pass) =
  let spans = Selftime.spans (Obs.Trace.events ()) in
  let extras = Obs.Metrics.to_extras () in
  let metric k = Option.value ~default:0.0 (List.assoc_opt k extras) in
  let count k = float_of_int (Counts.get p.counts k) in
  let busy =
    List.concat_map
      (fun (layer, pick) ->
        let s, mw = Selftime.busy spans pick in
        [ (layer ^ ".busy_s", s); (layer ^ ".alloc_mw", mw) ])
      layers
  in
  let named_s =
    List.fold_left (fun a (k, v) -> if Filename.check_suffix k ".busy_s" then a +. v else a) 0.0 busy
  in
  (* offline loops report their own conflicts; the daemon's only come
     from the process-wide counter, which has no final solves to exclude *)
  let loop_conflicts = if offline then count "loop.conflicts" else metric "sat.conflicts" in
  let split = Latency.split p.replies in
  let n = float_of_int (max 1 (split.Latency.hits + split.Latency.misses)) in
  busy
  @ [
      ("elimlin.facts", count "facts.elimlin");
      ("xl.facts", count "facts.xl");
      ("anf_prop.facts", count "facts.propagation");
      ("sat.facts", count "facts.sat");
      ("driver.facts",
       List.fold_left (fun a (k, v) -> if String.starts_with ~prefix:"facts." k then a +. float_of_int v else a)
         0.0 (Counts.to_list p.counts));
      ("driver.iterations", count "iterations");
      ("linearize.calls", float_of_int (Selftime.count spans (named [ "linearize.build" ])));
      ("anf_to_cnf.clauses", count "clauses");
      ("cnf_to_anf.polys", count "cnf_to_anf.polys");
      ("sat.conflicts", metric "sat.conflicts");
      ("sat.propagations", metric "sat.propagations");
      ("sat.fact_yield", if loop_conflicts > 0.0 then 1000.0 *. count "facts.sat" /. loop_conflicts else 0.0);
      ("parity.propagations", metric "sat.parity_propagations");
      ("parity.conflicts", metric "sat.parity_conflicts");
      ("parity.gauss_rounds", metric "sat.gauss_rounds");
      ("service.hit.latency_p50_ms", split.Latency.hit_p50_ms);
      ("cache.hit_ratio", float_of_int split.Latency.hits /. n);
      ("service.miss.latency_p99_ms", split.Latency.miss_tail_ms);
      ("service.miss.compute_p50_ms", split.Latency.miss_compute_p50_ms);
      ("service.miss.wait_p99_ms", split.Latency.miss_wait_tail_ms);
      ("traced_wall_s", p.wall_s);
      ("layer_coverage", if offline then named_s /. p.wall_s else 0.0);
      ("budget_trips", count "budget_trips");
      ("trace.dropped", float_of_int (Obs.Trace.dropped ()));
    ]

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let median = Latency.median

(* One timed set-up, after a full collection; [teardown] runs once the
   clock has stopped. *)
let timed_setup ?(teardown = ignore) f =
  Gc.compact ();
  let x, s = Harness.Timing.time f in
  teardown x;
  (x, s)

(* The median of the first set-up's [first_s] and of further set-ups
   timed by [again], as many as [setup_min_reps], [setup_min_s] and
   [setup_max_reps] say.  It runs after the passes: the garbage of many
   set-ups would raise the peak RSS read after the first pass. *)
let median_setup first_s again =
  let rec go times total =
    let n = List.length times in
    if n >= setup_max_reps || (n >= setup_min_reps && total >= setup_min_s) then median times
    else
      let s = again () in
      go (s :: times) (total +. s)
  in
  go [ first_s ] first_s

(* Tracing and metrics recording are on for the duration of one pass. *)
let traced_pass ~offline run =
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  Obs.Trace.set_enabled true;
  Obs.Metrics.set_enabled true;
  let p =
    Fun.protect run ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.Metrics.set_enabled false)
  in
  let layer = per_layer ~offline p in
  Obs.Trace.reset ();
  (p, layer)

let status_line key_values =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) key_values)

let proc_status field =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec find () =
      let line = input_line ic in
      if String.starts_with ~prefix:(field ^ ":") line then
        Some (String.trim (String.sub line (String.length field + 1)
                             (String.length line - String.length field - 1)))
      else find ()
    in
    find ()
  with Sys_error _ | End_of_file -> None

let peak_rss_mb () =
  match proc_status "VmHWM" with
  | Some v -> (try Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0) with _ -> 0.0)
  | None -> 0.0

(* CPUs this process may run on, as nproc counts them. *)
let nproc () =
  match proc_status "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
      List.fold_left
        (fun n range ->
          match String.split_on_char '-' range with
          | [ a; b ] -> n + int_of_string b - int_of_string a + 1
          | _ -> n + 1)
        0 (String.split_on_char ',' list)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (k, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_float v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let run ~workload ~seed ~seconds ~trace =
  let offline = workload <> "service-mix" in
  let (first_setup_s, setup_again), pass =
    (* the instances, and the first set-up's time with a way to time more *)
    let setup ?teardown f =
      let x, s = timed_setup ?teardown f in
      (x, (s, fun () -> snd (timed_setup ?teardown f)))
    in
    match workload with
    | "anf-cipher" ->
        let instances, setup_s = setup (fun () -> W.anf_cipher ~seed) in
        (setup_s, cipher_pass instances)
    | "cnf-suite" ->
        let instances, setup_s = setup (fun () -> W.cnf_suite ~seed) in
        (setup_s, cnf_pass (List.map (fun i -> (i, oracle i)) instances))
    | "service-mix" ->
        let (streams, _), setup_s =
          setup
            ~teardown:(fun (_, daemon) -> Service.Daemon.stop daemon)
            (fun () ->
              let streams = W.service_streams ~seed in
              (streams, Service.Daemon.start (daemon_config socket_path)))
        in
        (setup_s, service_pass streams)
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  (* Passes run until the next one would overrun [seconds].  With
     --trace 1 untraced and traced passes alternate: the traced ones give
     the split, both together the trace overhead.  Without tracing at
     least three passes run, so a request's median over them drops a
     stall that hit it in one. *)
  let min_passes = if trace then 2 else 3 in
  let t0 = now () in
  (* peak RSS through set-up and the first pass: later passes would make
     it depend on how many passes fit in [seconds] *)
  let rss_mb = ref 0.0 in
  let rec loop i last acc =
    if i >= min_passes && now () -. t0 +. last > seconds then List.rev acc
    else
      let entry =
        if trace && i mod 2 = 1 then
          let p, layer = traced_pass ~offline pass in
          (true, p, layer)
        else (false, pass (), [])
      in
      let _, p, _ = entry in
      if i = 0 then rss_mb := peak_rss_mb ();
      (* each pass starts after a full collection, so no pass pays for
         the garbage of the one before (the service's old daemon included) *)
      Gc.compact ();
      loop (i + 1) p.wall_s (entry :: acc)
  in
  let passes = loop 0 0.0 [] in
  let all = List.map (fun (_, p, _) -> p) passes in
  let untraced = List.filter_map (fun (t, p, _) -> if t then None else Some p) passes in
  let traced = List.filter_map (fun (t, p, _) -> if t then Some p else None) passes in
  let first = List.hd all in
  let counts = Counts.to_list first.counts in
  let wrong = List.concat_map (fun p -> p.wrong) all in
  let repeat_ok = List.for_all (fun p -> Counts.to_list p.counts = counts) all in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 all in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 all in
  let wall ps = median (List.map (fun p -> p.wall_s) ps) in
  let wall_s = wall untraced in
  (* Latency percentiles are taken over distinct instances or requests,
     each timed by its median over the untraced passes: a host stall that
     lands on a few requests of one pass drops out.  The service's tail is
     the highest percentile with ten samples beyond it (p99 of 1000); an
     offline pass holds a few dozen instances, so its tail is the slowest
     one. *)
  let latencies = Latency.per_item_median (List.map (fun p -> p.latencies_s) untraced) in
  let p50 = median latencies in
  let p99, level, beyond =
    if offline then (Latency.percentile latencies 100.0, 100.0, 0) else Latency.tail latencies
  in
  let host_domains = Domain.recommended_domain_count () and nproc = nproc () in
  print_endline
    (status_line
       ([ ("workload", workload); ("seed", string_of_int seed);
          ("host_domains", string_of_int host_domains); ("nproc", string_of_int nproc);
          ("passes", string_of_int (List.length all));
          ("traced_passes", string_of_int (List.length traced));
          ("pass_walls_s", String.concat "," (List.map (fun p -> Printf.sprintf "%.3f" p.wall_s) all));
          ("latency_samples", string_of_int (List.length latencies));
          ("latency_p99_level", Printf.sprintf "%.2f" level);
          ("latency_p99_beyond", string_of_int beyond);
          ("counts_repeat", string_of_bool repeat_ok) ]
       @ List.map (fun (k, v) -> (k, string_of_int v)) counts));
  List.iter (fun w -> Printf.printf "WRONG %s\n" w) wrong;
  if not repeat_ok then print_endline "WRONG exact-repeat counts differ between passes";
  let no_trips = Counts.get first.counts "budget_trips" = 0 in
  if not no_trips then print_endline "WRONG a wall-clock limit bound (budget_trips > 0)";
  let correct = wrong = [] && repeat_ok && no_trips in
  let metrics =
    if trace then
      let layers = List.filter_map (fun (t, _, l) -> if t then Some l else None) passes in
      List.map
        (fun (k, _) ->
          let unit =
            if Filename.check_suffix k "_s" then "s"
            else if Filename.check_suffix k "_ms" then "ms"
            else if Filename.check_suffix k "_mw" then "Mwords"
            else if Filename.check_suffix k "_ratio" || k = "layer_coverage" then "ratio"
            else if k = "sat.fact_yield" then "1/kconflict"
            else "count"
          in
          (k, unit, median (List.map (List.assoc k) layers)))
        (List.hd layers)
      @ [ ("trace_overhead_s", "s", wall traced -. wall_s);
          ("host_domains", "count", float_of_int host_domains);
          ("nproc", "count", float_of_int nproc) ]
    else
      [
        ("wall_s", "s", wall_s);
        ("decided_ratio", "ratio", float_of_int (attempted - failed) /. float_of_int attempted);
        ("peak_rss_mb", "MB", !rss_mb);
        ("rps", "1/s", float_of_int first.attempted /. wall_s);
        ("latency_p50_ms", "ms", 1000.0 *. p50);
        ("latency_p99_ms", "ms", 1000.0 *. p99);
        ("setup_s", "s", median_setup first_setup_s setup_again);
      ]
  in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W anf-cipher | cnf-suite | service-mix");
      ("--seed", Arg.Set_int seed, "N seed for instance generation");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer split when 1");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "anf-cipher"; "cnf-suite"; "service-mix" ]) then begin
    prerr_endline "perfbench: --workload must be anf-cipher, cnf-suite or service-mix";
    exit 2
  end;
  Obs.Trace.set_capacity (1 lsl 21);
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
