(* Domain-pool runtime: chunking arithmetic, deterministic join order,
   exception propagation, nested submission, and the sequential
   fallback. *)

module Pool = Runtime.Pool

let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* chunk_ranges                                                         *)
(* ------------------------------------------------------------------ *)

let test_chunk_ranges_cover () =
  (* every (chunks, lo, hi) must produce contiguous, ordered, disjoint
     ranges covering [lo, hi) exactly *)
  for chunks = 1 to 7 do
    for lo = 0 to 3 do
      for n = 0 to 20 do
        let hi = lo + n in
        let ranges = Pool.chunk_ranges ~chunks ~lo ~hi in
        let covered = List.concat_map (fun (a, b) -> List.init (b - a) (fun i -> a + i)) ranges in
        check_ints
          (Printf.sprintf "cover chunks=%d lo=%d hi=%d" chunks lo hi)
          (List.init n (fun i -> lo + i))
          covered;
        List.iter (fun (a, b) -> Alcotest.(check bool) "nonempty" true (a < b)) ranges;
        Alcotest.(check bool) "at most chunks pieces" true (List.length ranges <= chunks)
      done
    done
  done

let test_chunk_ranges_balanced () =
  let ranges = Pool.chunk_ranges ~chunks:4 ~lo:0 ~hi:10 in
  let sizes = List.map (fun (a, b) -> b - a) ranges in
  check_ints "10 over 4 splits 3,3,2,2" [ 3; 3; 2; 2 ] sizes

(* ------------------------------------------------------------------ *)
(* run / map: order and equivalence with sequential                     *)
(* ------------------------------------------------------------------ *)

let test_run_preserves_order () =
  let pool = Pool.get ~jobs:4 in
  let thunks = List.init 50 (fun i () -> i * i) in
  check_ints "results in submission order" (List.init 50 (fun i -> i * i)) (Pool.run pool thunks)

let test_map_list_matches_sequential () =
  let pool = Pool.get ~jobs:3 in
  let xs = List.init 101 (fun i -> i - 50) in
  let f x = (x * 7) + 3 in
  check_ints "map_list = List.map" (List.map f xs) (Pool.map_list pool f xs);
  check_ints "empty list" [] (Pool.map_list pool f [])

let test_sequential_fallback () =
  (* jobs=1 must not spawn domains; everything runs in the caller *)
  let pool = Pool.get ~jobs:1 in
  check_int "jobs" 1 (Pool.jobs pool);
  let self = Domain.self () in
  let domains = Pool.run pool (List.init 8 (fun _ () -> Domain.self ())) in
  List.iter (fun d -> Alcotest.(check bool) "ran in caller" true (d = self)) domains

let test_parallel_for_covers_range () =
  let pool = Pool.get ~jobs:4 in
  let hits = Array.make 100 0 in
  Pool.parallel_for pool ~lo:0 ~hi:100 (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Array.iteri (fun i h -> check_int (Printf.sprintf "index %d hit once" i) 1 h) hits;
  (* empty range is a no-op *)
  Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ _ -> failwith "must not run")

(* ------------------------------------------------------------------ *)
(* exceptions and reuse                                                 *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_exception_propagates () =
  let pool = Pool.get ~jobs:2 in
  (match Pool.run pool [ (fun () -> 1); (fun () -> raise (Boom 7)); (fun () -> 3) ] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 7 -> ()
  | exception e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e));
  (* the pool stays usable after a failed batch *)
  check_ints "pool usable after failure" [ 10; 20 ]
    (Pool.run pool [ (fun () -> 10); (fun () -> 20) ])

let test_nested_run () =
  (* tasks may submit sub-batches to the same pool without deadlock:
     the awaiting caller helps drain the queue *)
  let pool = Pool.get ~jobs:2 in
  let outer =
    Pool.run pool
      (List.init 4 (fun i () ->
           let inner = Pool.run pool (List.init 3 (fun j () -> (10 * i) + j)) in
           List.fold_left ( + ) 0 inner))
  in
  check_ints "nested totals" [ 3; 33; 63; 93 ] outer

let test_shared_pool () =
  let p1 = Pool.get ~jobs:2 in
  let p2 = Pool.get ~jobs:2 in
  check_int "shared pool reports jobs" 2 (Pool.jobs p1);
  check_ints "both handles work" [ 1; 2 ] (Pool.run p1 [ (fun () -> 1); (fun () -> 2) ]);
  check_ints "second handle too" [ 3; 4 ] (Pool.run p2 [ (fun () -> 3); (fun () -> 4) ])

let test_default_jobs_positive () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Grain: the kernels' fixed parallel cutoffs                           *)
(* ------------------------------------------------------------------ *)

(* Each parallel kernel decides dispatch with a pool-free probe over its
   work size and the requested jobs.  [size] scales the work linearly.
   M4RM's trailing update is the one kernel with a parallel path. *)
let grain_probes =
  [
    ( "m4rm",
      fun ~size ~jobs -> Gf2.Matrix.m4rm_parallel_worthwhile ~rows:size ~cols:size ~jobs () );
  ]

let test_grain_worth_parallel () =
  let host_parallel = Domain.recommended_domain_count () > 1 in
  List.iter
    (fun (name, worth) ->
      let check msg = Alcotest.(check bool) (name ^ ": " ^ msg) in
      check "jobs=1 never parallel" false (worth ~size:1_000_000 ~jobs:1);
      check "zero work stays inline" false (worth ~size:0 ~jobs:4);
      check "huge work dispatches iff the host can parallelize" host_parallel
        (worth ~size:1_000_000 ~jobs:4);
      (* one threshold: once a size is worth dispatching, every larger
         size is too *)
      let sizes = List.init 2_000 Fun.id in
      let flips =
        List.fold_left
          (fun (prev, n) size ->
            let w = worth ~size ~jobs:4 in
            (w, if w <> prev then n + 1 else n))
          (false, 0) sizes
        |> snd
      in
      check "a single cutoff in work size" true (flips <= 1))
    grain_probes

let test_worth_parallel_jobs_no_pool () =
  (* the probes need no pool: past jobs=2 the answer depends only on the
     work size and the host, never on how wide a pool was asked for *)
  List.iter
    (fun (name, worth) ->
      List.iter
        (fun size ->
          let at2 = worth ~size ~jobs:2 in
          List.iter
            (fun jobs ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: size=%d jobs=%d agrees with jobs=2" name size jobs)
                at2 (worth ~size ~jobs))
            [ 3; 4; 16; 64 ])
        [ 0; 1; 8; 50; 100; 1_000; 1_000_000 ])
    grain_probes

(* ------------------------------------------------------------------ *)
(* run_pinned: dedicated domains for long tasks                         *)
(* ------------------------------------------------------------------ *)

let test_run_pinned_order_and_errors () =
  (match Pool.run_pinned [] with
  | [] -> ()
  | _ -> Alcotest.fail "empty batch");
  (match Pool.run_pinned [ (fun () -> 41 + 1) ] with
  | [ Ok 42 ] -> ()
  | _ -> Alcotest.fail "singleton runs inline");
  let results =
    Pool.run_pinned
      [ (fun () -> 1); (fun () -> raise (Boom 5)); (fun () -> 3) ]
  in
  (match results with
  | [ Ok 1; Error (Boom 5); Ok 3 ] -> ()
  | _ -> Alcotest.fail "submission order with per-slot errors");
  (* the pinned worker set is reusable *)
  match Pool.run_pinned [ (fun () -> 7); (fun () -> 8) ] with
  | [ Ok 7; Ok 8 ] -> ()
  | _ -> Alcotest.fail "pinned set reusable after a failed batch"

let test_run_pinned_beside_queue () =
  (* pinned tasks run beside the work queue, not in it: while two pinned
     tasks occupy their dedicated domains (spinning on [release]), a
     batch on the shared pool must still complete — if the pinned tasks
     had been queued instead, they could hold the queue's workers and
     the release below would never be reached *)
  let release = Atomic.make false in
  let results =
    Pool.run_pinned
      [
        (fun () ->
          (* runs on the caller, per the run_pinned contract *)
          let pool = Pool.get ~jobs:2 in
          let batch = Pool.run pool (List.init 8 (fun i () -> i)) in
          Atomic.set release true;
          List.fold_left ( + ) 0 batch);
        (fun () ->
          while not (Atomic.get release) do
            Domain.cpu_relax ()
          done;
          1);
        (fun () ->
          while not (Atomic.get release) do
            Domain.cpu_relax ()
          done;
          2);
      ]
  in
  match results with
  | [ Ok 28; Ok 1; Ok 2 ] -> ()
  | _ -> Alcotest.fail "shared queue starved by pinned tasks"

let test_run_pinned_with_inner_queue_work () =
  (* a pinned task may itself dispatch on the shared pool *)
  let results =
    Pool.run_pinned
      (List.init 3 (fun i () ->
           let pool = Pool.get ~jobs:2 in
           List.fold_left ( + ) 0 (Pool.run pool (List.init 4 (fun j () -> (10 * i) + j)))))
  in
  match results with
  | [ Ok 6; Ok 46; Ok 86 ] -> ()
  | _ -> Alcotest.fail "pinned tasks dispatching inner queue batches"

let test_run_pinned_cancel_skips () =
  let c = Pool.Cancel.create () in
  Pool.Cancel.set c;
  let results = Pool.run_pinned ~cancel:c [ (fun () -> 1); (fun () -> 2) ] in
  List.iter
    (function
      | Error Pool.Cancelled -> ()
      | Ok _ -> Alcotest.fail "pre-set token must skip pinned slots"
      | Error e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e))
    results

let suite =
  [
    ( "runtime.pool",
      [
        Alcotest.test_case "chunk_ranges covers exactly" `Quick test_chunk_ranges_cover;
        Alcotest.test_case "chunk_ranges balanced" `Quick test_chunk_ranges_balanced;
        Alcotest.test_case "run preserves order" `Quick test_run_preserves_order;
        Alcotest.test_case "map_list = List.map" `Quick test_map_list_matches_sequential;
        Alcotest.test_case "jobs=1 runs in caller" `Quick test_sequential_fallback;
        Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_covers_range;
        Alcotest.test_case "exception propagates, pool survives" `Quick test_exception_propagates;
        Alcotest.test_case "nested run does not deadlock" `Quick test_nested_run;
        Alcotest.test_case "shared pool handles" `Quick test_shared_pool;
        Alcotest.test_case "default_jobs positive" `Quick test_default_jobs_positive;
      ] );
    ( "runtime.pinned",
      [
        Alcotest.test_case "order and per-slot errors" `Quick
          test_run_pinned_order_and_errors;
        Alcotest.test_case "runs beside the work queue" `Quick
          test_run_pinned_beside_queue;
        Alcotest.test_case "inner queue dispatch" `Quick
          test_run_pinned_with_inner_queue_work;
        Alcotest.test_case "pre-set token skips slots" `Quick
          test_run_pinned_cancel_skips;
      ] );
    ( "runtime.grain",
      [
        Alcotest.test_case "worth_parallel thresholds" `Quick test_grain_worth_parallel;
        Alcotest.test_case "worth_parallel_jobs probes without a pool" `Quick
          test_worth_parallel_jobs_no_pool;
      ] );
  ]
