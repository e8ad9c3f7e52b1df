let sorted xs = Array.of_list (List.sort Float.compare xs)

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0)
  else
    let k = if n >= 11 then n - 11 else n - 1 in
    (a.(k), 100.0 *. float_of_int (k + 1) /. float_of_int n, n - 1 - k)

let per_item_median = function
  | [] -> []
  | first :: _ as runs ->
      let n = List.length first in
      if List.exists (fun r -> List.length r <> n) runs then
        invalid_arg "Latency.per_item_median: runs of different lengths";
      let columns = List.map Array.of_list runs in
      List.init n (fun j -> median (List.map (fun a -> a.(j)) columns))

type reply = { latency_s : float; compute_s : float; cache_hit : bool }

type split = {
  hits : int;
  misses : int;
  hit_p50_ms : float;
  miss_tail_ms : float;
  miss_compute_p50_ms : float;
  miss_wait_tail_ms : float;
}

let split replies =
  let hits, misses = List.partition (fun r -> r.cache_hit) replies in
  let ms f rs = List.map (fun r -> 1000.0 *. f r) rs in
  let first (v, _, _) = v in
  {
    hits = List.length hits;
    misses = List.length misses;
    hit_p50_ms = median (ms (fun r -> r.latency_s) hits);
    miss_tail_ms = first (tail (ms (fun r -> r.latency_s) misses));
    miss_compute_p50_ms = median (ms (fun r -> r.compute_s) misses);
    miss_wait_tail_ms = first (tail (ms (fun r -> r.latency_s -. r.compute_s) misses));
  }
