open Perfbench

let ev ph name tid span_id ts_us ?(minor = 0) () =
  let args = if ph = Obs.Trace.End then [ ("gc_minor_words", string_of_int minor) ] else [] in
  { Obs.Trace.ph; name; ts_us; tid; span_id; args }

let b = ev Obs.Trace.Begin
let e = ev Obs.Trace.End

(* Domain 0 runs [run] with children [a] and [b]; domain 1 runs a pool
   task while [run] is open.  Events of the two domains interleave. *)
let events =
  [
    b "run" 0 0 0.0 ();
    b "a" 0 1 100.0 ();
    b "task" 1 0 200.0 ();
    e "a" 0 1 400.0 ~minor:1000 ();
    b "b" 0 2 500.0 ();
    b "inner" 0 3 520.0 ();
    e "inner" 0 3 540.0 ~minor:10 ();
    e "b" 0 2 600.0 ~minor:500 ();
    e "task" 1 0 900.0 ~minor:2000 ();
    e "run" 0 0 1000.0 ~minor:3000 ();
    (* an end whose begin was cleared by a trace reset *)
    e "stale" 0 7 1100.0 ();
  ]

let find spans name = List.find (fun sp -> sp.Selftime.name = name) spans
let close = Alcotest.float 1e-9

let test_self_time () =
  let spans = Selftime.spans events in
  Alcotest.(check int) "stale end skipped" 5 (List.length spans);
  let run = find spans "run" in
  Alcotest.check close "run duration" 0.001 run.Selftime.dur_s;
  (* 1000 us minus its same-domain children a (300) and b (100); the
     700 us task on domain 1 ran in parallel and is not subtracted *)
  Alcotest.check close "run self" 0.0006 run.Selftime.self_s;
  Alcotest.check close "run self alloc" 0.0015 run.Selftime.self_alloc_mw;
  let b = find spans "b" in
  Alcotest.check close "b self excludes inner only" 0.00008 b.Selftime.self_s;
  Alcotest.check close "b self alloc" 0.00049 b.Selftime.self_alloc_mw;
  let task = find spans "task" in
  Alcotest.check close "task self" 0.0007 task.Selftime.self_s;
  Alcotest.(check (list string)) "task has no parent" [] task.Selftime.ancestors;
  Alcotest.(check (list string)) "inner ancestors" [ "b"; "run" ]
    (find spans "inner").Selftime.ancestors

let test_busy () =
  let spans = Selftime.spans events in
  let s, mw = Selftime.busy spans (fun sp -> List.mem sp.Selftime.name [ "run"; "task" ]) in
  Alcotest.check close "busy seconds" 0.0013 s;
  Alcotest.check close "busy Mwords" 0.0035 mw;
  (* self times of all spans add up to the busy time of both domains *)
  let all, _ = Selftime.busy spans (fun _ -> true) in
  Alcotest.check close "self times partition" 0.0017 all;
  Alcotest.(check int) "children of run" 2
    (Selftime.count spans (fun sp -> sp.Selftime.ancestors = [ "run" ]))

let test_tail () =
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  let v, level, beyond = Latency.tail xs in
  Alcotest.check close "p99 of 1..1000" 990.0 v;
  Alcotest.check close "level" 99.0 level;
  Alcotest.(check int) "beyond" 10 beyond;
  let v, _, beyond = Latency.tail [ 3.0; 1.0; 2.0 ] in
  Alcotest.check close "few samples: max" 3.0 v;
  Alcotest.(check int) "few samples: none beyond" 0 beyond;
  Alcotest.check close "p50" 2.0 (Latency.percentile [ 3.0; 1.0; 2.0 ] 50.0);
  Alcotest.check close "median, odd count" 2.0 (Latency.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "median, even count" 2.5 (Latency.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "median, none" 0.0 (Latency.median [])

(* A stall on one item of one run drops out of that item's median. *)
let test_per_item_median () =
  let runs = [ [ 1.0; 2.0; 3.0 ]; [ 1.2; 9.0; 3.1 ]; [ 0.9; 2.1; 2.9 ] ] in
  Alcotest.(check (list (float 1e-9))) "medians" [ 1.0; 2.1; 3.0 ] (Latency.per_item_median runs);
  Alcotest.(check (list (float 1e-9))) "no runs" [] (Latency.per_item_median []);
  Alcotest.check_raises "lengths differ"
    (Invalid_argument "Latency.per_item_median: runs of different lengths") (fun () ->
      ignore (Latency.per_item_median [ [ 1.0 ]; [ 1.0; 2.0 ] ]))

(* Hits replay the stored summary's wall_s (here 50 ms, the original
   miss's compute time) although they are served in well under a
   millisecond: compute and wait must come from misses alone. *)
let test_split () =
  let hit = { Latency.latency_s = 0.0004; compute_s = 0.050; cache_hit = true } in
  let miss i =
    { Latency.latency_s = 0.020 +. (0.001 *. float_of_int i); compute_s = 0.015; cache_hit = false }
  in
  let s = Latency.split (List.init 30 (fun _ -> hit) @ List.init 20 miss) in
  Alcotest.(check int) "hits" 30 s.Latency.hits;
  Alcotest.(check int) "misses" 20 s.Latency.misses;
  Alcotest.check close "hit p50" 0.4 s.Latency.hit_p50_ms;
  Alcotest.check close "miss compute p50" 15.0 s.Latency.miss_compute_p50_ms;
  (* 20 misses: the tail is the 10th smallest, latency 29 ms, wait 14 ms *)
  Alcotest.check close "miss tail" 29.0 s.Latency.miss_tail_ms;
  Alcotest.check close "miss wait tail" 14.0 s.Latency.miss_wait_tail_ms

let () =
  Alcotest.run "perfbench"
    [
      ( "selftime",
        [
          Alcotest.test_case "self time per domain" `Quick test_self_time;
          Alcotest.test_case "busy and count" `Quick test_busy;
        ] );
      ( "latency",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "per-item median" `Quick test_per_item_median;
          Alcotest.test_case "hit/miss split" `Quick test_split;
        ] );
    ]
