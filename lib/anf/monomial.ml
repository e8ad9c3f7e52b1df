(* Strictly increasing array of variable indices. *)
type t = int array

let one : t = [||]

let var x =
  if x < 0 then invalid_arg "Monomial.var";
  [| x |]

let of_vars xs =
  let sorted = List.sort_uniq Int.compare xs in
  List.iter (fun x -> if x < 0 then invalid_arg "Monomial.of_vars") sorted;
  Array.of_list sorted

let vars m = Array.to_list m
let degree m = Array.length m
let is_one m = Array.length m = 0

let contains m x =
  (* binary search in the sorted variable array *)
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if m.(mid) = x then true else if m.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length m)

(* Merge two strictly increasing arrays, dropping duplicates (x*x = x). *)
let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then (out.(!k) <- x; incr i)
      else if x > y then (out.(!k) <- y; incr j)
      else (out.(!k) <- x; incr i; incr j);
      incr k
    done;
    while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
    while !j < lb do out.(!k) <- b.(!j); incr j; incr k done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

(* Insertion into the ascending distinct prefix buf.(0 .. k-1) of the
   variables seen so far: polynomials mention few distinct variables, so
   this beats sorting every occurrence. *)
let support (ms : t array) =
  let n = Array.fold_left (fun n m -> n + Array.length m) 0 ms in
  let buf = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to Array.length ms - 1 do
    let m = Array.unsafe_get ms i in
    for j = 0 to Array.length m - 1 do
      let x = Array.unsafe_get m j in
      (* binary search for the first entry >= x *)
      let lo = ref 0 and hi = ref !k in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if Array.unsafe_get buf mid < x then lo := mid + 1 else hi := mid
      done;
      if !lo = !k || Array.unsafe_get buf !lo <> x then begin
        Array.blit buf !lo buf (!lo + 1) (!k - !lo);
        Array.unsafe_set buf !lo x;
        incr k
      end
    done
  done;
  if !k = n then buf else Array.sub buf 0 !k

let remove_var m x =
  if contains m x then begin
    let out = Array.make (Array.length m - 1) 0 in
    let k = ref 0 in
    Array.iter (fun v -> if v <> x then (out.(!k) <- v; incr k)) m;
    out
  end
  else m

let divides a b = Array.for_all (fun x -> contains b x) a

let max_var m = if Array.length m = 0 then -1 else m.(Array.length m - 1)

(* Graded order: higher degree first; within a degree, lexicographically
   ascending variable tuples, matching how the paper displays polynomials
   (x1x2 + x3 + x4 + 1).  Both comparisons run over top-level helpers so
   that a call allocates nothing: every linearisation sort and hash-table
   probe goes through them. *)
let rec compare_from (a : t) (b : t) i n =
  if i >= n then 0
  else
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    if x < y then -1 else if x > y then 1 else compare_from a b (i + 1) n

let compare a b =
  let da = Array.length a and db = Array.length b in
  if da <> db then Int.compare db da else compare_from a b 0 da

let rec equal_from (a : t) (b : t) i n =
  i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i + 1) n)

let equal a b =
  let n = Array.length a in
  n = Array.length b && equal_from a b 0 n

let hash (m : t) = Hashtbl.hash m

let rec hash_from (m : t) h i n =
  if i >= n then h else hash_from m ((h * 31) + Array.unsafe_get m i) (i + 1) n

let hash_fold h m =
  let n = Array.length m in
  hash_from m ((h * 1000003) + n) 0 n

(* ---------- one-pass literal rewriting ---------- *)

(* A literal code: [2r] is variable r, [2r + 1] is r + 1, [-2] and [-1]
   are the constants 0 and 1. *)
let lit_zero = -2
let lit_one = -1

let rec rewrites_from lit (m : t) i n =
  i < n
  &&
  let x = Array.unsafe_get m i in
  lit x <> 2 * x || rewrites_from lit m (i + 1) n

let rewrites lit m = rewrites_from lit m 0 (Array.length m)

(* The code in buf.(0 .. n-1) naming the same variable as [c], or -1. *)
let rec find_lit (buf : int array) n c i =
  if i >= n then -1
  else
    let d = Array.unsafe_get buf i in
    if d lsr 1 = c lsr 1 then d else find_lit buf n c (i + 1)

(* Insert [c] into the ascending buf.(0 .. j-1), shifting larger codes up. *)
let rec insert_lit (buf : int array) c j =
  if j > 0 && Array.unsafe_get buf (j - 1) > c then begin
    Array.unsafe_set buf j (Array.unsafe_get buf (j - 1));
    insert_lit buf c (j - 1)
  end
  else Array.unsafe_set buf j c

let rec rewrite_from lit (m : t) (buf : int array) i n =
  if i >= Array.length m then n
  else
    let c = lit (Array.unsafe_get m i) in
    if c = lit_zero then -1
    else if c = lit_one then rewrite_from lit m buf (i + 1) n
    else
      let d = find_lit buf n c 0 in
      if d < 0 then begin
        insert_lit buf c n;
        rewrite_from lit m buf (i + 1) (n + 1)
      end
      else if d = c then rewrite_from lit m buf (i + 1) n (* x*x = x *)
      else -1 (* r*(r+1) = 0 *)

let rewrite lit m buf = rewrite_from lit m buf 0 0

let of_lits (buf : int array) n ~mask =
  (* plain codes are always kept, the j-th negated one iff bit j of mask *)
  let kept i j = buf.(i) land 1 = 0 || mask land (1 lsl j) <> 0 in
  let size = ref 0 and j = ref 0 in
  for i = 0 to n - 1 do
    if kept i !j then incr size;
    if buf.(i) land 1 = 1 then incr j
  done;
  let out = Array.make !size 0 and k = ref 0 in
  j := 0;
  for i = 0 to n - 1 do
    if kept i !j then begin
      out.(!k) <- buf.(i) lsr 1;
      incr k
    end;
    if buf.(i) land 1 = 1 then incr j
  done;
  out

let eval assignment m = Array.for_all assignment m

let add_to_buffer b m =
  if Array.length m = 0 then Buffer.add_char b '1'
  else
    Array.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b '*';
        Buffer.add_char b 'x';
        Buffer.add_string b (Int.to_string x))
      m

let to_string m =
  let b = Buffer.create 16 in
  add_to_buffer b m;
  Buffer.contents b

let pp ppf m = Format.pp_print_string ppf (to_string m)
