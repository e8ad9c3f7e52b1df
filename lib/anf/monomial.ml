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

let remove_var m x =
  if contains m x then Array.of_list (List.filter (fun v -> v <> x) (Array.to_list m))
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
