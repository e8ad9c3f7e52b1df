module S = Minterm_set

let exact_threshold = 18

(* Per-domain scratch.  [sets] holds the primes' cover sets (set [i] at
   [i * S.words]), [rsets] the residual primes' sets; [work] holds the
   on-set, the once-covered, the twice-covered and the residual sets;
   [unc] one uncovered set per branch-and-bound depth.  The arrays sized
   by the prime count grow in {!ensure}, outside the kernels. *)
type scratch = {
  mutable sets : int array;
  mutable rsets : int array;
  mutable ridx : int array;  (** residual prime -> prime index *)
  mutable key : int array;
  mutable out : int array;  (** chosen prime indices, in output order *)
  work : int array;
  unc : int array;
  stack : int array;
  best : int array;
  cov : int array;  (** minterm -> bit mask of the residual primes covering it *)
  mutable best_size : int;
}

let all = 0
let once = S.words
let twice = 2 * S.words
let residual = 3 * S.words

let make_scratch cap =
  {
    sets = S.create cap;
    rsets = S.create cap;
    ridx = Array.make cap 0;
    key = Array.make cap 0;
    out = Array.make cap 0;
    work = S.create 4;
    unc = S.create (exact_threshold + 1);
    stack = Array.make exact_threshold 0;
    best = Array.make exact_threshold 0;
    cov = Array.make 256 0;
    best_size = 0;
  }

let scratch = Domain.DLS.new_key (fun () -> make_scratch 64)

let ensure sc n =
  if Array.length sc.ridx < n then begin
    let cap = max n (2 * Array.length sc.ridx) in
    sc.sets <- S.create cap;
    sc.rsets <- S.create cap;
    sc.ridx <- Array.make cap 0;
    sc.key <- Array.make cap 0;
    sc.out <- Array.make cap 0
  end

(* Hashtbl.create 8 starts at 16 buckets and doubles once it holds more
   than twice as many entries as buckets *)
let rec table_size n len = if n > 2 * len then table_size n (2 * len) else len

(* insertion sort of [out.(lo .. hi-1)] by [key] *)
let rec sort_by_key sc i hi =
  if i < hi then begin
    let x = Array.unsafe_get sc.out i and k = Array.unsafe_get sc.key i in
    sort_insert sc x k i;
    sort_by_key sc (i + 1) hi
  end

and sort_insert sc x k j =
  if j > 0 && Array.unsafe_get sc.key (j - 1) > k then begin
    Array.unsafe_set sc.out j (Array.unsafe_get sc.out (j - 1));
    Array.unsafe_set sc.key j (Array.unsafe_get sc.key (j - 1));
    sort_insert sc x k (j - 1)
  end
  else begin
    Array.unsafe_set sc.out j x;
    Array.unsafe_set sc.key j k
  end

(* the primes whose cover set meets the once-covered minterms, each with
   the first of them as its key *)
let rec collect_essentials sc n i e =
  if i >= n then e
  else
    let first = S.first_inter sc.sets (i * S.words) sc.work once in
    if first < 0 then collect_essentials sc n (i + 1) e
    else begin
      Array.unsafe_set sc.out e i;
      Array.unsafe_set sc.key e first;
      collect_essentials sc n (i + 1) (e + 1)
    end

(* Essential primes (sole coverer of some minterm) into [out], in the order
   the hash table of the list-based selection folded them: it inserted
   prime i when minterms ascending first reached one that i alone covers,
   kept each bucket newest first across resizes, and the fold reversed the
   bucket walk — so buckets descending, then first sole minterm
   ascending. *)
let essentials sc n =
  let e = collect_essentials sc n 0 0 in
  let len = table_size e 16 in
  for t = 0 to e - 1 do
    let bucket = Hashtbl.hash (Array.unsafe_get sc.out t) land (len - 1) in
    Array.unsafe_set sc.key t (((len - 1 - bucket) lsl 8) lor Array.unsafe_get sc.key t)
  done;
  sort_by_key sc 0 e;
  e

(* the primes meeting the residual set, ascending, with their sets cut
   down to it *)
let rec collect_residual sc n i r =
  if i >= n then r
  else if S.disjoint sc.sets (i * S.words) sc.work residual then collect_residual sc n (i + 1) r
  else begin
    S.copy sc.sets (i * S.words) sc.rsets (r * S.words);
    S.inter_into sc.rsets (r * S.words) sc.work residual;
    Array.unsafe_set sc.ridx r i;
    collect_residual sc n (i + 1) (r + 1)
  end

let rec clear_cov sc m =
  let m = S.next sc.work residual m in
  if m >= 0 then begin
    Array.unsafe_set sc.cov m 0;
    clear_cov sc (m + 1)
  end

let rec mark_cov sc j m =
  let m = S.next sc.rsets (j * S.words) m in
  if m >= 0 then begin
    Array.unsafe_set sc.cov m (Array.unsafe_get sc.cov m lor (1 lsl j));
    mark_cov sc j (m + 1)
  end

(* the uncovered minterm at depth [d] with the fewest covering residual
   primes, the smallest on ties, packed as (count lsl 8) lor m *)
let rec fewest sc d m acc =
  let m = S.next sc.unc (d * S.words) m in
  if m < 0 then acc land 0xFF
  else
    let c = (S.popcount (Array.unsafe_get sc.cov m) lsl 8) lor m in
    fewest sc d (m + 1) (if c < acc then c else acc)

(* Exact minimum cover by branch and bound over the residual primes: at
   each depth branch on the uncovered minterm with the fewest coverers,
   trying its primes in order; [stack] is the current choice, [best] the
   smallest complete one. *)
let rec branch sc r d =
  if d < sc.best_size then
    if S.is_empty sc.unc (d * S.words) then begin
      Array.blit sc.stack 0 sc.best 0 d;
      sc.best_size <- d
    end
    else begin
      let c = Array.unsafe_get sc.cov (fewest sc d 0 max_int) in
      for j = 0 to r - 1 do
        if c lsr j land 1 = 1 then begin
          Array.unsafe_set sc.stack d j;
          S.diff3 sc.unc ((d + 1) * S.words) sc.unc (d * S.words) sc.rsets (j * S.words);
          branch sc r (d + 1)
        end
      done
    end

(* the residual prime covering most of [unc] (set 0), the first on ties,
   or -1 *)
let rec most_gain sc r j best best_gain =
  if j >= r then best
  else
    let g = S.inter_cardinal sc.rsets (j * S.words) sc.unc 0 in
    if g > best_gain then most_gain sc r (j + 1) j g else most_gain sc r (j + 1) best best_gain

(* greedy most-coverage choice; [key] collects the picks, and they are
   output last pick first *)
let rec greedy sc r picks =
  if S.is_empty sc.unc 0 then picks
  else begin
    let j = most_gain sc r 0 (-1) 0 in
    if j < 0 then invalid_arg "Cover.select: uncoverable minterm";
    Array.unsafe_set sc.key picks j;
    S.diff_into sc.unc 0 sc.rsets (j * S.words);
    greedy sc r (picks + 1)
  end

let select_into sc n =
  let w = sc.work in
  S.clear w once;
  S.clear w twice;
  for i = 0 to n - 1 do
    S.union_inter_into w twice w once sc.sets (i * S.words);
    S.union_into w once sc.sets (i * S.words)
  done;
  if not (S.subset w all w once) then invalid_arg "Cover.select: uncoverable minterm";
  (* [once] becomes the minterms covered exactly once *)
  S.diff_into w once w twice;
  let e = essentials sc n in
  S.copy w all w residual;
  for t = 0 to e - 1 do
    S.diff_into w residual sc.sets (Array.unsafe_get sc.out t * S.words)
  done;
  if S.is_empty w residual then e
  else begin
    (* residual primes, ascending: the essential ones cover nothing left *)
    let r = collect_residual sc n 0 0 in
    let exact =
      r <= exact_threshold
      && begin
        clear_cov sc 0;
        for j = 0 to r - 1 do
          mark_cov sc j 0
        done;
        S.copy w residual sc.unc 0;
        sc.best_size <- max_int;
        branch sc r 0;
        sc.best_size < max_int
      end
    in
    if exact then begin
      (* deepest choice first *)
      for t = 0 to sc.best_size - 1 do
        Array.unsafe_set sc.out (e + t)
          (Array.unsafe_get sc.ridx (Array.unsafe_get sc.best (sc.best_size - 1 - t)))
      done;
      e + sc.best_size
    end
    else begin
      S.copy w residual sc.unc 0;
      let picks = greedy sc r 0 in
      for t = 0 to picks - 1 do
        Array.unsafe_set sc.out (e + t)
          (Array.unsafe_get sc.ridx (Array.unsafe_get sc.key (picks - 1 - t)))
      done;
      e + picks
    end
  end

let select ~nvars (on : int array) (primes : int array) n (cover : int array) =
  let sc = Domain.DLS.get scratch in
  ensure sc n;
  S.copy on 0 sc.work all;
  for i = 0 to n - 1 do
    let c = primes.(i) in
    S.cube_into sc.sets (i * S.words) ~nvars ~mask:(c lsr 8) ~value:(c land 0xFF)
  done;
  let c = select_into sc n in
  for t = 0 to c - 1 do
    cover.(t) <- primes.(Array.unsafe_get sc.out t)
  done;
  c
