(* Growable flat [int] vector over an off-heap word store.  The payload
   lives in a [Bigarray.Array1] of native ints (c_layout): watcher lists,
   the trail and clause-reference lists sit in malloc'd memory the GC
   never scans or moves, and element access compiles to a direct
   load/store with no write barrier.  Unlike the polymorphic {!Vec}, the
   payload is unboxed and contiguous — the point of the clause arena. *)

module A1 = Bigarray.Array1

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

type t = { mutable data : buf; mutable size : int }

let make_buf n : buf =
  let b = A1.create Bigarray.int Bigarray.c_layout n in
  A1.fill b 0;
  b

(* The store of every vector that has not grown yet: never written, since
   a vector writes only below its size and [push] grows it first.  So an
   empty vector costs a record, not a malloc'd block with a finaliser —
   a solver makes two per variable for its watch lists. *)
let empty : buf = A1.create Bigarray.int Bigarray.c_layout 0

let create ?(cap = 0) () = { data = (if cap > 0 then make_buf cap else empty); size = 0 }

let size v = v.size

let grow v needed =
  let cap = A1.dim v.data in
  if needed > cap then begin
    let data = make_buf (Int.max needed (Int.max 8 (2 * cap))) in
    A1.blit (A1.sub v.data 0 v.size) (A1.sub data 0 v.size);
    v.data <- data
  end

let push v x =
  grow v (v.size + 1);
  A1.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let push2 v x y =
  grow v (v.size + 2);
  A1.unsafe_set v.data v.size x;
  A1.unsafe_set v.data (v.size + 1) y;
  v.size <- v.size + 2

let check v i =
  if i < 0 || i >= v.size then
    invalid_arg (Printf.sprintf "Ivec: index %d out of range (size %d)" i v.size)

let get v i =
  check v i;
  A1.unsafe_get v.data i

let set v i x =
  check v i;
  A1.unsafe_set v.data i x

(* Unchecked accessors for the propagation inner loop; callers maintain the
   bound themselves. *)
let unsafe_get v i = A1.unsafe_get v.data i
let unsafe_set v i x = A1.unsafe_set v.data i x
let store v = v.data

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Ivec.shrink";
  v.size <- n

let clear v = v.size <- 0

let iter f v =
  for i = 0 to v.size - 1 do
    f (A1.unsafe_get v.data i)
  done

let filter_in_place f v =
  let j = ref 0 in
  for i = 0 to v.size - 1 do
    let x = A1.unsafe_get v.data i in
    if f x then begin
      A1.unsafe_set v.data !j x;
      incr j
    end
  done;
  v.size <- !j

let to_list v = List.init v.size (fun i -> A1.get v.data i)

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

(* In-place heapsort directly on the word store.  The previous
   implementation copied the live prefix into an OCaml array for
   [Array.sort] — at a learnt-database reduction that is a minor-heap
   allocation proportional to the database size, and reductions are the
   dominant residual allocator in an otherwise allocation-free solve.
   Heapsort needs no scratch space, and determinism only requires a fixed
   permutation for a fixed input, not stability (callers' comparators
   break ties on clause identity). *)
let sort_in_place cmp v =
  let d = v.data and n = v.size in
  let sift root last =
    let x = A1.unsafe_get d root in
    let i = ref root in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l > last then continue := false
      else begin
        let c =
          if l < last && cmp (A1.unsafe_get d l) (A1.unsafe_get d (l + 1)) < 0
          then l + 1
          else l
        in
        if cmp x (A1.unsafe_get d c) < 0 then begin
          A1.unsafe_set d !i (A1.unsafe_get d c);
          i := c
        end
        else continue := false
      end
    done;
    A1.unsafe_set d !i x
  in
  for root = (n - 2) / 2 downto 0 do
    sift root (n - 1)
  done;
  for last = n - 1 downto 1 do
    let x = A1.unsafe_get d 0 in
    A1.unsafe_set d 0 (A1.unsafe_get d last);
    A1.unsafe_set d last x;
    sift 0 (last - 1)
  done

(* A structural copy sharing nothing with the original: the backing store
   is blitted word-for-word, so iteration order and contents are
   identical.  Used by the solver's clone (portfolio worker setup). *)
let copy v =
  if A1.dim v.data = 0 then { data = empty; size = 0 }
  else begin
    let data = make_buf (A1.dim v.data) in
    A1.blit v.data data;
    { data; size = v.size }
  end

(* Arrays of vectors are built from chunks of at most 256: [Array.init]
   past 256 slots makes a major-heap array around its fresh first element,
   and the runtime forces a minor collection to promote that element
   first.  [Array.concat] and [Array.append] fill a major array slot by
   slot instead. *)
let init_chunked n f =
  if n <= 256 then Array.init n f
  else
    Array.concat
      (List.init ((n + 255) / 256) (fun c ->
           let lo = c * 256 in
           Array.init (Int.min 256 (n - lo)) (fun i -> f (lo + i))))

let make_array n = init_chunked n (fun _ -> create ())
let copy_array a = init_chunked (Array.length a) (fun i -> copy a.(i))

let extend_array a n =
  if n <= Array.length a then a else Array.append a (make_array (n - Array.length a))
