(* Tests for the observability layer: span tracing (Obs.Trace), the
   metrics registry (Obs.Metrics), crash-safe sinks (Obs.Sink), and the
   Json_out float-hygiene fix.  The JSON documents are validated with the
   strict Harness.Json_in parser, which notably rejects the bare
   [inf]/[nan] tokens the old emitter could produce. *)

module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Sink = Obs.Sink
module Pool = Runtime.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every test must leave the global recorders the way it found them:
   disabled and empty.  Exceptions propagate after cleanup. *)
let with_clean_obs f =
  Trace.set_enabled false;
  Metrics.set_enabled false;
  Trace.reset ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Metrics.set_enabled false;
      Trace.reset ();
      Metrics.reset ())
    f

(* ------------------------------------------------------------------ *)
(* JSON accessors                                                      *)
(* ------------------------------------------------------------------ *)

let member k v =
  match Harness.Json_in.member k v with
  | Some x -> x
  | None -> Alcotest.failf "missing member %S" k

let expect what conv v =
  match conv v with Some x -> x | None -> Alcotest.failf "not %s" what

let as_arr = expect "an array" Harness.Json_in.to_list_opt
let as_str = expect "a string" Harness.Json_in.to_string_opt
let as_num = expect "a number" Harness.Json_in.to_float_opt

(* ------------------------------------------------------------------ *)
(* Trace: recording semantics                                          *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_noop () =
  with_clean_obs @@ fun () ->
  let r = Trace.with_span ~name:"off" (fun () -> 42) in
  check_int "result flows through" 42 r;
  Trace.instant "off-mark";
  check_int "nothing recorded while disabled" 0 (Trace.n_events ());
  check "no drops" true (Trace.dropped () = 0)

let test_trace_nesting () =
  with_clean_obs @@ fun () ->
  Trace.set_enabled true;
  let r =
    Trace.with_span ~name:"outer" ~args:[ ("k", "v") ] (fun () ->
        Trace.with_span ~name:"inner" (fun () -> 7))
  in
  check_int "result flows through" 7 r;
  let evs = Trace.events () in
  check_int "two begins + two ends" 4 (List.length evs);
  (match List.map (fun (e : Trace.event) -> (e.ph, e.name)) evs with
  | [
   (Trace.Begin, "outer"); (Trace.Begin, "inner"); (Trace.End, "inner"); (Trace.End, "outer");
  ] ->
      ()
  | shape ->
      Alcotest.failf "unexpected span shape (%d events): %s" (List.length shape)
        (String.concat ";"
           (List.map
              (fun (ph, name) ->
                (match ph with
                | Trace.Begin -> "B:"
                | Trace.End -> "E:"
                | Trace.Instant -> "i:")
                ^ name)
              shape)));
  (* timestamps never go backwards within a domain *)
  let rec monotone = function
    | (a : Trace.event) :: (b : Trace.event) :: rest ->
        a.ts_us <= b.ts_us && monotone (b :: rest)
    | _ -> true
  in
  check "timestamps monotone" true (monotone evs);
  (* Begin/End of the same span share an id; nesting gives distinct ids *)
  let id_of name ph =
    let e =
      List.find (fun (e : Trace.event) -> e.name = name && e.ph = ph) evs
    in
    e.span_id
  in
  check "outer B/E ids match" true (id_of "outer" Trace.Begin = id_of "outer" Trace.End);
  check "inner B/E ids match" true (id_of "inner" Trace.Begin = id_of "inner" Trace.End);
  check "outer and inner ids differ" false
    (id_of "outer" Trace.Begin = id_of "inner" Trace.Begin);
  let outer_begin =
    List.find (fun (e : Trace.event) -> e.name = "outer" && e.ph = Trace.Begin) evs
  in
  check "args recorded on begin" true (outer_begin.args = [ ("k", "v") ])

let test_trace_span_closes_on_exception () =
  with_clean_obs @@ fun () ->
  Trace.set_enabled true;
  (try Trace.with_span ~name:"boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  let evs = Trace.events () in
  check_int "begin and end both recorded" 2 (List.length evs);
  check "end recorded despite the exception" true
    (List.exists (fun (e : Trace.event) -> e.ph = Trace.End && e.name = "boom") evs)

let stack_matched events =
  (* walk one domain's event stream with an explicit stack: every End must
     close the innermost open Begin, and nothing may stay open *)
  let ok = ref true in
  let stack = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match e.ph with
      | Trace.Begin -> stack := (e.name, e.span_id) :: !stack
      | Trace.Instant -> ()
      | Trace.End -> (
          match !stack with
          | (name, id) :: rest when name = e.name && id = e.span_id -> stack := rest
          | _ -> ok := false))
    events;
  !ok && !stack = []

let test_trace_export_parses_matched () =
  with_clean_obs @@ fun () ->
  Trace.set_enabled true;
  (* spans from the main domain, instants, and pinned-task spans *)
  Trace.with_span ~name:"root" (fun () ->
      Trace.instant "mark" ~args:[ ("detail", "x") ];
      (* a barrier across all four pinned tasks: each spins until all four
         have started, so the spans land on four distinct domains while
         each is still open *)
      let started = Atomic.make 0 in
      ignore
        (Pool.run_pinned
           (List.init 4 (fun i () ->
                Trace.with_span ~name:"worker-span" (fun () ->
                    Atomic.incr started;
                    while Atomic.get started < 4 do
                      Domain.cpu_relax ()
                    done;
                    i * i)))));
  (* per-domain streams individually stack-matched *)
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace by_tid e.tid
        (e :: (try Hashtbl.find by_tid e.tid with Not_found -> [])))
    (Trace.events ());
  Hashtbl.iter
    (fun tid evs ->
      check
        (Printf.sprintf "domain %d stream is stack-matched" tid)
        true
        (stack_matched (List.rev evs)))
    by_tid;
  (* the export parses and B/E counts match *)
  let doc = Harness.Json_in.parse (Trace.to_json ()) in
  let events = as_arr (member "traceEvents" doc) in
  check "export has events" true (events <> []);
  let count ph =
    List.length (List.filter (fun e -> as_str (member "ph" e) = ph) events)
  in
  check_int "matched B/E counts" (count "B") (count "E");
  check_int "one instant" 1 (count "i");
  check "pool workers appear as other tracks" true
    (List.length
       (List.sort_uniq compare (List.map (fun e -> as_num (member "tid" e)) events))
    > 1);
  check "worker spans exported" true
    (List.exists (fun e -> as_str (member "name" e) = "worker-span") events)

let test_trace_open_span_export_is_matched () =
  with_clean_obs @@ fun () ->
  Trace.set_enabled true;
  (* export from *inside* open spans: the snapshot must close them with
     synthetic truncation-marked Ends — the crash-time file shape *)
  let doc =
    Trace.with_span ~name:"outer" (fun () ->
        Trace.with_span ~name:"inner" (fun () -> Harness.Json_in.parse (Trace.to_json ())))
  in
  let events = as_arr (member "traceEvents" doc) in
  let count ph =
    List.length (List.filter (fun e -> as_str (member "ph" e) = ph) events)
  in
  check_int "two begins" 2 (count "B");
  check_int "two synthetic ends" 2 (count "E");
  let truncated =
    List.filter
      (fun e ->
        as_str (member "ph" e) = "E"
        && Option.bind (Harness.Json_in.member "args" e)
             (Harness.Json_in.member "truncated")
           = Some (Harness.Json_out.Value.String "true"))
      events
  in
  check_int "synthetic ends are marked truncated" 2 (List.length truncated)

let test_trace_capacity_drops_but_stays_matched () =
  with_clean_obs @@ fun () ->
  Trace.set_capacity 64;
  Fun.protect ~finally:(fun () -> Trace.set_capacity 262_144) @@ fun () ->
  Trace.set_enabled true;
  (* capacity is frozen when a domain's buffer is created, and the main
     domain's buffer already exists — exercise the cap on a fresh domain *)
  let before = Trace.n_events () in
  Domain.join
    (Domain.spawn (fun () ->
         for i = 0 to 999 do
           Trace.with_span ~name:"tiny" (fun () -> ignore i)
         done));
  check "spans were dropped" true (Trace.dropped () > 0);
  check "buffer stayed near capacity" true (Trace.n_events () - before <= 64 + 4);
  let doc = Harness.Json_in.parse (Trace.to_json ()) in
  let events = as_arr (member "traceEvents" doc) in
  let count ph =
    List.length (List.filter (fun e -> as_str (member "ph" e) = ph) events)
  in
  check_int "still matched at the cap" (count "B") (count "E");
  check "drop count exported" true (as_num (member "droppedSpans" doc) > 0.0)

(* A span reports the minor words allocated inside it exactly, on any
   domain.  [cons_words n] allocates 3n words (one header and two fields
   per cell); the span's own bookkeeping is a constant, measured by an
   empty span and subtracted.  300,048 words spans more than one minor
   collection, so a counter that only advances at a collection would be
   off by up to a minor heap. *)
let rec cons_list acc i = if i = 0 then acc else cons_list (i :: acc) (i - 1)
let cons_words n = ignore (Sys.opaque_identity (cons_list [] n))
let known_words = 300_048

let test_trace_span_minor_words_exact () =
  with_clean_obs @@ fun () ->
  Trace.set_enabled true;
  let spans () =
    Trace.with_span ~name:"empty" (fun () -> ());
    Trace.with_span ~name:"alloc" (fun () -> cons_words (known_words / 3))
  in
  spans ();
  let main_tid = (List.hd (Trace.events ())).Trace.tid in
  Domain.join (Domain.spawn spans);
  let reported ~on_main name =
    match
      List.find_opt
        (fun (e : Trace.event) ->
          e.ph = Trace.End && e.name = name && (e.tid = main_tid) = on_main)
        (Trace.events ())
    with
    | Some e -> int_of_string (List.assoc "gc_minor_words" e.args)
    | None -> Alcotest.failf "no %s span end" name
  in
  List.iter
    (fun (on_main, where) ->
      check_int
        (where ^ ": span reports the words allocated inside it")
        known_words
        (reported ~on_main "alloc" - reported ~on_main "empty"))
    [ (true, "main domain"); (false, "spawned domain") ]

let test_perf_measure_minor_words_exact () =
  let words f = (snd (Harness.Perf.measure f)).Harness.Perf.minor_words in
  let overhead = words (fun () -> ()) in
  Alcotest.(check (float 0.0))
    "measure reports the words allocated inside it" (float_of_int known_words)
    (words (fun () -> cons_words (known_words / 3)) -. overhead)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_disabled_noop () =
  with_clean_obs @@ fun () ->
  let c = Metrics.counter "test.noop_counter" in
  Metrics.incr c;
  Metrics.incr c ~by:41;
  check_int "disabled counter stays zero" 0 (Metrics.counter_value c);
  let g = Metrics.gauge "test.noop_gauge" in
  Metrics.set_gauge g 9;
  check_int "disabled gauge stays zero" 0 (Metrics.gauge_value g);
  let h = Metrics.histogram "test.noop_hist" in
  Metrics.observe h 3.5;
  check_int "disabled histogram stays empty" 0 (Metrics.histogram_count h)

let test_metrics_counter_atomicity () =
  with_clean_obs @@ fun () ->
  Metrics.set_enabled true;
  let c = Metrics.counter "test.parallel_counter" in
  let bump () =
    ignore
      (Pool.run_pinned
         (List.init 4 (fun _ () ->
              for _ = 1 to 20_000 do
                Metrics.incr c
              done)))
  in
  bump ();
  check_int "no lost updates under 4 domains" 80_000 (Metrics.counter_value c);
  (* determinism across reset: a second identical run lands on the same
     value, so merged bench extras are reproducible *)
  Metrics.reset ();
  bump ();
  check_int "deterministic after reset" 80_000 (Metrics.counter_value c)

(* one bump per minimised Karnaugh cover: a fresh domain starts with a
   cold memo, and a repeated piece hits it *)
let test_metrics_cover_misses () =
  with_clean_obs @@ fun () ->
  Metrics.set_enabled true;
  let poly = Anf.Anf_io.poly_of_string in
  let convert polys =
    ignore (Bosphorus.Anf_to_cnf.convert ~config:Bosphorus.Config.default polys)
  in
  Domain.join
    (Domain.spawn (fun () ->
         convert [ poly "x1*x3 + x1 + x2 + x4 + 1" ];
         check_int "one piece, one miss" 1 (Bosphorus.Anf_to_cnf.cover_misses ());
         (* the same function over other variables has the same key *)
         convert [ poly "x5*x7 + x5 + x6 + x8 + 1"; poly "x1*x2 + x3" ];
         check_int "a repeat hits, a new piece misses" 2
           (Bosphorus.Anf_to_cnf.cover_misses ())))

let test_metrics_kind_clash_rejected () =
  with_clean_obs @@ fun () ->
  ignore (Metrics.counter "test.kind_clash");
  check "re-registering as a gauge is rejected" true
    (match Metrics.gauge "test.kind_clash" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_metrics_export_parses () =
  with_clean_obs @@ fun () ->
  Metrics.set_enabled true;
  let c = Metrics.counter "test.export_counter" in
  Metrics.incr c ~by:3;
  let g = Metrics.gauge "test.export_gauge" in
  Metrics.set_gauge g 12;
  Metrics.set_gauge g 5;
  let h = Metrics.histogram "test.export_hist" in
  Metrics.observe h 2.0;
  Metrics.observe h 4.0;
  let doc = Harness.Json_in.parse (Metrics.to_json ()) in
  check "counter exported" true
    (as_num (member "test.export_counter" (member "counters" doc)) = 3.0);
  let gauge = member "test.export_gauge" (member "gauges" doc) in
  check "gauge level" true (as_num (member "value" gauge) = 5.0);
  check "gauge peak retained" true (as_num (member "peak" gauge) = 12.0);
  let hist = member "test.export_hist" (member "histograms" doc) in
  check "histogram count" true (as_num (member "count" hist) = 2.0);
  check "histogram sum" true (as_num (member "sum" hist) = 6.0);
  check "histogram mean" true (as_num (member "mean" hist) = 3.0);
  (* the flat extras view used by the bench JSON *)
  let extras = Metrics.to_extras () in
  check "extras sorted by key" true
    (let keys = List.map fst extras in
     keys = List.sort compare keys);
  check "extras carry the gauge peak" true
    (List.assoc_opt "test.export_gauge.peak" extras = Some 12.0);
  check "extras carry the histogram count" true
    (List.assoc_opt "test.export_hist.count" extras = Some 2.0)

(* ------------------------------------------------------------------ *)
(* Json_out float hygiene (the emitter bugfix)                         *)
(* ------------------------------------------------------------------ *)

let test_json_out_clamps_non_finite () =
  let t = Harness.Json_out.create () in
  Harness.Json_out.add t ~experiment:"e" ~family:"f" ~wall_s:Float.infinity
    ~extras:
      [
        ("pos_inf", Float.infinity);
        ("neg_inf", Float.neg_infinity);
        ("nan", Float.nan);
        ("plain", 1.5);
      ]
    ~jobs:1 ();
  let s = Harness.Json_out.to_string t in
  (* the old emitter printed wall_s with %.6f, producing the bare token
     "inf" — the whole point of the fix is that this parses *)
  let doc = Harness.Json_in.parse s in
  let r = List.hd (as_arr (member "records" doc)) in
  check "infinite wall_s clamps to a finite number" true
    (as_num (member "wall_s" r) = 1e308);
  check "negative infinity clamps" true (as_num (member "neg_inf" r) = -1e308);
  check "NaN clamps to zero" true (as_num (member "nan" r) = 0.0);
  check "finite values survive" true (as_num (member "plain" r) = 1.5);
  (* belt and braces: the invalid tokens never appear textually *)
  let contains_token tok =
    let n = String.length s and m = String.length tok in
    let rec go i = i + m <= n && (String.sub s i m = tok || go (i + 1)) in
    go 0
  in
  check "no bare inf token" false (contains_token ": inf");
  check "no bare nan token" false (contains_token ": nan")

let test_json_out_float_to_json () =
  let f = Harness.Json_out.float_to_json in
  check "nan" true (f Float.nan = "0");
  check "inf" true (f Float.infinity = "1e308");
  check "-inf" true (f Float.neg_infinity = "-1e308");
  check "integral stays short" true (f 3.0 = "3");
  check "fractional keeps precision" true (f 0.25 = "0.250000")

let test_json_out_metrics_section () =
  with_clean_obs @@ fun () ->
  Metrics.set_enabled true;
  let c = Metrics.counter "test.json_out_counter" in
  Metrics.incr c ~by:7;
  let t = Harness.Json_out.create () in
  Harness.Json_out.add t ~experiment:"e" ~family:"f" ~wall_s:0.5 ~jobs:2 ();
  let doc = Harness.Json_in.parse (Harness.Json_out.to_string ~metrics:(Metrics.to_extras ()) t) in
  check "metrics section merged into the bench document" true
    (as_num (member "test.json_out_counter" (member "metrics" doc)) = 7.0)

(* ------------------------------------------------------------------ *)
(* Sink: crash-safe report files                                       *)
(* ------------------------------------------------------------------ *)

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bosphorus_test_%s_%d" name (Unix.getpid ()))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_sink_write_now_and_replace () =
  let path = temp_path "sink_basic" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* fallback registered first, then upgraded: the budget-report pattern *)
  Sink.register ~key:"test-basic" ~path (fun oc -> output_string oc "fallback");
  check "registered keys are pending" true (List.mem "test-basic" (Sink.pending ()));
  Sink.register ~key:"test-basic" ~path (fun oc -> output_string oc "real");
  Sink.write_now ~key:"test-basic";
  check "replacement writer wins" true (read_file path = "real");
  check "completed key no longer pending" false
    (List.mem "test-basic" (Sink.pending ()));
  check "no stray temp file" false (Sys.file_exists (path ^ ".tmp"));
  (* flush_all skips completed keys: the file is not rewritten *)
  Sys.remove path;
  Sink.flush_all ();
  check "flush skips completed keys" false (Sys.file_exists path)

let test_sink_failed_writer_isolated () =
  let p1 = temp_path "sink_fail" in
  let p2 = temp_path "sink_ok" in
  let cleanup p = try Sys.remove p with Sys_error _ -> () in
  Fun.protect ~finally:(fun () -> cleanup p1; cleanup p2)
  @@ fun () ->
  Sink.register ~key:"test-a-fails" ~path:p1 (fun _ -> failwith "writer bug");
  Sink.register ~key:"test-b-ok" ~path:p2 (fun oc -> output_string oc "ok");
  Sink.flush_all ();
  check "failed writer leaves no final file" false (Sys.file_exists p1);
  check "failed writer leaves no temp file" false (Sys.file_exists (p1 ^ ".tmp"));
  check "later writer still ran" true
    (Sys.file_exists p2 && read_file p2 = "ok");
  Sink.complete ~key:"test-a-fails" (* don't let at_exit retry the failure *)

let test_sink_complete_rearm () =
  let path = temp_path "sink_rearm" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sink.register ~key:"test-rearm" ~path (fun oc -> output_string oc "v1");
  Sink.complete ~key:"test-rearm";
  check "completed without writing" false (Sys.file_exists path);
  (* re-registering re-arms the key *)
  Sink.register ~key:"test-rearm" ~path (fun oc -> output_string oc "v2");
  check "re-registration re-arms" true (List.mem "test-rearm" (Sink.pending ()));
  Sink.write_now ~key:"test-rearm";
  check "re-armed writer ran" true (read_file path = "v2")

let suite =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "disabled path is a no-op" `Quick test_trace_disabled_noop;
        Alcotest.test_case "nesting, ids, monotone timestamps" `Quick test_trace_nesting;
        Alcotest.test_case "span closes on exception" `Quick
          test_trace_span_closes_on_exception;
        Alcotest.test_case "export parses, B/E matched, pool tracks" `Quick
          test_trace_export_parses_matched;
        Alcotest.test_case "open spans export with synthetic ends" `Quick
          test_trace_open_span_export_is_matched;
        Alcotest.test_case "capacity drops stay matched" `Quick
          test_trace_capacity_drops_but_stays_matched;
        Alcotest.test_case "span minor words exact on every domain" `Quick
          test_trace_span_minor_words_exact;
        Alcotest.test_case "Perf.measure minor words exact" `Quick
          test_perf_measure_minor_words_exact;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "disabled path is a no-op" `Quick test_metrics_disabled_noop;
        Alcotest.test_case "counter atomic across domains, deterministic" `Quick
          test_metrics_counter_atomicity;
        Alcotest.test_case "kind clash rejected" `Quick test_metrics_kind_clash_rejected;
        Alcotest.test_case "anf_to_cnf.cover_misses counts minimisations" `Quick
          test_metrics_cover_misses;
        Alcotest.test_case "export parses (gauges, histograms, extras)" `Quick
          test_metrics_export_parses;
      ] );
    ( "harness.json_out",
      [
        Alcotest.test_case "non-finite floats clamp (emitter bugfix)" `Quick
          test_json_out_clamps_non_finite;
        Alcotest.test_case "float_to_json table" `Quick test_json_out_float_to_json;
        Alcotest.test_case "metrics section merges" `Quick test_json_out_metrics_section;
      ] );
    ( "obs.sink",
      [
        Alcotest.test_case "write_now, replace, complete" `Quick
          test_sink_write_now_and_replace;
        Alcotest.test_case "failed writer is isolated" `Quick
          test_sink_failed_writer_isolated;
        Alcotest.test_case "complete then re-arm" `Quick test_sink_complete_rearm;
      ] );
  ]
