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
let view (m : t) : int array = m

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

(* ---------- graded order of monomial ids ---------- *)

(* Kernels of {!Ids.sort_graded}: a monomial table [monos] (id ->
   monomial) and int arrays only, nothing allocated. *)

let digit_bits = 7
let radix = 1 lsl digit_bits

let rec max_degree monos (ids : int array) i n acc =
  if i >= n then acc
  else
    max_degree monos ids (i + 1) n
      (Int.max acc (Array.length (Array.unsafe_get monos (Array.unsafe_get ids i))))

let rec max_variable monos (ids : int array) i n acc =
  if i >= n then acc
  else
    let m = Array.unsafe_get monos (Array.unsafe_get ids i) in
    let d = Array.length m in
    max_variable monos ids (i + 1) n (if d = 0 then acc else Int.max acc m.(d - 1))

let rec digits_for v acc = if v < radix then acc else digits_for (v lsr digit_bits) (acc + 1)

(* One stable counting-sort pass over src.(lo .. hi-1) into the same
   range of dst, keyed by digit [shift] of the variable at position
   [pos] (all monomials of the range have the same degree). *)
let digit_pass monos (src : int array) (dst : int array) (count : int array) lo hi pos shift =
  Array.fill count 0 (radix + 1) 0;
  for i = lo to hi - 1 do
    let x = Array.unsafe_get (Array.unsafe_get monos (Array.unsafe_get src i)) pos in
    let d = ((x lsr shift) land (radix - 1)) + 1 in
    Array.unsafe_set count d (Array.unsafe_get count d + 1)
  done;
  Array.unsafe_set count 0 lo;
  for d = 1 to radix do
    Array.unsafe_set count d (Array.unsafe_get count d + Array.unsafe_get count (d - 1))
  done;
  for i = lo to hi - 1 do
    let id = Array.unsafe_get src i in
    let x = Array.unsafe_get (Array.unsafe_get monos id) pos in
    let d = (x lsr shift) land (radix - 1) in
    let at = Array.unsafe_get count d in
    Array.unsafe_set dst at id;
    Array.unsafe_set count d (at + 1)
  done;
  Array.blit dst lo src lo (hi - lo)

(* Lexicographic order of the run src.(lo .. hi-1) of degree [deg]:
   least significant position and digit first. *)
let rec sort_run monos src dst count lo hi deg ndigits pos =
  if pos >= 0 then begin
    for digit = 0 to ndigits - 1 do
      digit_pass monos src dst count lo hi pos (digit * digit_bits)
    done;
    sort_run monos src dst count lo hi deg ndigits (pos - 1)
  end

let rec run_end monos (a : int array) deg i n =
  if i < n && Array.length (Array.unsafe_get monos (Array.unsafe_get a i)) = deg then
    run_end monos a deg (i + 1) n
  else i

let rec sort_runs monos src dst count lo n ndigits =
  if lo < n then begin
    let deg = Array.length (Array.unsafe_get monos (Array.unsafe_get src lo)) in
    let hi = run_end monos src deg (lo + 1) n in
    if hi - lo > 1 then sort_run monos src dst count lo hi deg ndigits (deg - 1);
    sort_runs monos src dst count hi n ndigits
  end

(* Sorts ids.(0 .. n-1) (distinct ids) into graded order: a stable
   counting sort by descending degree into [tmp], then an LSD radix sort
   of each degree's run by its variables, [digit_bits] bits at a time.
   Needs [tmp] of length at least [n] and [count] of at least
   [max (radix + 1) (max degree + 2)]; allocates nothing. *)
let sort_ids_into monos (ids : int array) n (tmp : int array) (count : int array) =
  let top = max_degree monos ids 0 n 0 in
  let ndigits = digits_for (max_variable monos ids 0 n 0) 1 in
  Array.fill count 0 (top + 2) 0;
  for i = 0 to n - 1 do
    let k = top - Array.length (Array.unsafe_get monos (Array.unsafe_get ids i)) + 1 in
    Array.unsafe_set count k (Array.unsafe_get count k + 1)
  done;
  for k = 1 to top + 1 do
    Array.unsafe_set count k (Array.unsafe_get count k + Array.unsafe_get count (k - 1))
  done;
  for i = 0 to n - 1 do
    let id = Array.unsafe_get ids i in
    let k = top - Array.length (Array.unsafe_get monos id) in
    let at = Array.unsafe_get count k in
    Array.unsafe_set tmp at id;
    Array.unsafe_set count k (at + 1)
  done;
  sort_runs monos tmp ids count 0 n ndigits;
  Array.blit tmp 0 ids 0 n

(* ---------- dense ids ---------- *)

(* The union of the ascending variable arrays [a] and [b] (x*x = x),
   written into [buf] from [k] on; returns the length.  [buf] must hold
   [la + lb] ints. *)
let rec merge_into (a : t) la (b : t) lb (buf : int array) i j k =
  if i < la && j < lb then begin
    let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
    if x < y then begin
      Array.unsafe_set buf k x;
      merge_into a la b lb buf (i + 1) j (k + 1)
    end
    else if x > y then begin
      Array.unsafe_set buf k y;
      merge_into a la b lb buf i (j + 1) (k + 1)
    end
    else begin
      Array.unsafe_set buf k x;
      merge_into a la b lb buf (i + 1) (j + 1) (k + 1)
    end
  end
  else if i < la then begin
    Array.unsafe_set buf k (Array.unsafe_get a i);
    merge_into a la b lb buf (i + 1) j (k + 1)
  end
  else if j < lb then begin
    Array.unsafe_set buf k (Array.unsafe_get b j);
    merge_into a la b lb buf i (j + 1) (k + 1)
  end
  else k

module Ids = struct
  type mono = t

  (* a monomial is its variable array, so the table is an [Intern] *)
  type t = { tbl : Intern.t; mutable buf : int array (* product scratch *) }

  let create ?(size_hint = 16) () = { tbl = Intern.create ~size_hint (); buf = Array.make 16 0 }
  let count t = Intern.count t.tbl
  let monomial t id : mono = Intern.get t.tbl id

  let intern t (m : mono) =
    let s = Intern.slot t.tbl m (Array.length m) in
    let id = Intern.id_at t.tbl s in
    if id >= 0 then id else Intern.insert t.tbl s m

  let intern_mul t (a : mono) (b : mono) =
    let la = Array.length a and lb = Array.length b in
    if Array.length t.buf < la + lb then t.buf <- Array.make (2 * (la + lb)) 0;
    let buf = t.buf in
    let n = merge_into a la b lb buf 0 0 0 in
    let s = Intern.slot t.tbl buf n in
    let id = Intern.id_at t.tbl s in
    if id >= 0 then id
    else
      (* a product as long as a factor equals it: share that factor *)
      Intern.insert t.tbl s (if n = la then a else if n = lb then b else Array.sub buf 0 n)

  let sort_graded t ids n =
    if n > Array.length ids then invalid_arg "Monomial.Ids.sort_graded";
    (* the table's arrays are the monomials, read by id *)
    let monos = Intern.store t.tbl in
    let top = max_degree monos ids 0 n 0 in
    let tmp = Array.make n 0 and count = Array.make (Int.max (radix + 1) (top + 2)) 0 in
    sort_ids_into monos ids n tmp count
end
