(* Packed bit vector over an off-heap word store.

   The words live in a [Bigarray.Array1] of native ints (c_layout): the
   payload is malloc'd outside the scanned OCaml heap, so the GC neither
   scans nor moves row storage — the point of the dense GF(2) plane — and
   element access compiles to a direct load/store with no boxing (the
   [int] kind, unlike [int64], has immediate elements on a 64-bit host).
   Bit [i] of the vector is bit [i mod Sys.int_size] of word
   [i / Sys.int_size], exactly the layout of the previous [int array]
   backing, so all indexing arithmetic is unchanged. *)

module A1 = Bigarray.Array1

type words = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

type t = { len : int; words : words }

let bits_per_word = Sys.int_size

let words_for len = (len + bits_per_word - 1) / bits_per_word

let make_words n =
  let w : words = A1.create Bigarray.int Bigarray.c_layout n in
  A1.fill w 0;
  w

let create len =
  if len < 0 then invalid_arg "Bitvec.create";
  { len; words = make_words (Int.max 1 (words_for len)) }

let length v = v.len
let n_words v = A1.dim v.words

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of range"

let get v i =
  check v i;
  A1.unsafe_get v.words (i / bits_per_word) lsr (i mod bits_per_word) land 1 = 1

let set v i b =
  check v i;
  let w = i / bits_per_word and o = i mod bits_per_word in
  if b then A1.unsafe_set v.words w (A1.unsafe_get v.words w lor (1 lsl o))
  else A1.unsafe_set v.words w (A1.unsafe_get v.words w land lnot (1 lsl o))

let flip v i =
  check v i;
  let w = i / bits_per_word and o = i mod bits_per_word in
  A1.unsafe_set v.words w (A1.unsafe_get v.words w lxor (1 lsl o))

let copy v =
  let words = A1.create Bigarray.int Bigarray.c_layout (A1.dim v.words) in
  A1.blit v.words words;
  { len = v.len; words }

let blit ~src ~dst =
  if src.len <> dst.len then invalid_arg "Bitvec.blit: length mismatch";
  A1.blit src.words dst.words

(* Bits [lo, lo + width) of each of the first [n] vectors, as ints with
   bit [lo] lowest.  A window may straddle two words: the low part comes
   from word [lo / bits_per_word] shifted down, the rest from the next
   word shifted up past it.  One call reads a whole column band of a
   matrix, so the per-row cost is a load or two, not a call. *)
let windows rows ~n ~lo ~width out =
  if
    lo < 0 || width < 0 || width >= bits_per_word || n < 0
    || n > Array.length rows || n > Array.length out
  then invalid_arg "Bitvec.windows: range out of bounds";
  let w = lo / bits_per_word and o = lo mod bits_per_word in
  let mask = (1 lsl width) - 1 in
  let straddles = o + width > bits_per_word in
  for r = 0 to n - 1 do
    let v = Array.unsafe_get rows r in
    if lo + width > v.len then invalid_arg "Bitvec.windows: range out of bounds";
    let bits =
      if width = 0 then 0
      else if straddles then
        (A1.unsafe_get v.words w lsr o)
        lor (A1.unsafe_get v.words (w + 1) lsl (bits_per_word - o))
      else A1.unsafe_get v.words w lsr o
    in
    Array.unsafe_set out r (bits land mask)
  done

let xor_into ~src ~dst =
  if src.len <> dst.len then invalid_arg "Bitvec.xor_into: length mismatch";
  let s = src.words and d = dst.words in
  for w = 0 to A1.dim d - 1 do
    A1.unsafe_set d w (A1.unsafe_get d w lxor A1.unsafe_get s w)
  done

(* Word-range variant for cache-blocked panel updates: XOR only words
   [lo_word, hi_word) of [src] into [dst].  Callers own the blocking
   arithmetic; the range is clipped to the store so a final ragged panel
   needs no special case. *)
let xor_into_range ~src ~dst ~lo_word ~hi_word =
  if src.len <> dst.len then invalid_arg "Bitvec.xor_into_range: length mismatch";
  let s = src.words and d = dst.words in
  let lo = Int.max 0 lo_word and hi = Int.min (A1.dim d) hi_word in
  for w = lo to hi - 1 do
    A1.unsafe_set d w (A1.unsafe_get d w lxor A1.unsafe_get s w)
  done

let is_zero v =
  let n = A1.dim v.words in
  let rec go w = w >= n || (A1.unsafe_get v.words w = 0 && go (w + 1)) in
  go 0

(* Index of the lowest set bit of a nonzero word. *)
let lowest_bit_index w =
  let rec go w i = if w land 1 = 1 then i else go (w lsr 1) (i + 1) in
  go w 0

let first_set v =
  let n = A1.dim v.words in
  let rec go w =
    if w >= n then None
    else if A1.unsafe_get v.words w = 0 then go (w + 1)
    else Some ((w * bits_per_word) + lowest_bit_index (A1.unsafe_get v.words w))
  in
  go 0

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let popcount v =
  let n = A1.dim v.words in
  let rec go w acc =
    if w >= n then acc else go (w + 1) (acc + popcount_word (A1.unsafe_get v.words w))
  in
  go 0 0

let equal a b =
  a.len = b.len
  &&
  let n = A1.dim a.words in
  n = A1.dim b.words
  &&
  let rec go i = i >= n || (A1.unsafe_get a.words i = A1.unsafe_get b.words i && go (i + 1)) in
  go 0

let iter_set v f =
  for w = 0 to A1.dim v.words - 1 do
    let bits = ref (A1.unsafe_get v.words w) in
    while !bits <> 0 do
      let i = lowest_bit_index !bits in
      f ((w * bits_per_word) + i);
      bits := !bits land lnot (1 lsl i)
    done
  done

let fold_set v init f =
  let acc = ref init in
  iter_set v (fun i -> acc := f !acc i);
  !acc

let of_list n idxs =
  let v = create n in
  List.iter (fun i -> flip v i) idxs;
  v

let to_list v = List.rev (fold_set v [] (fun acc i -> i :: acc))

let pp ppf v =
  for i = 0 to v.len - 1 do
    Format.pp_print_char ppf (if get v i then '1' else '0')
  done
