(* Packed bit vector over an off-heap word store.

   The words live in a [Bigarray.Array1] of native ints (c_layout): the
   payload is malloc'd outside the scanned OCaml heap, so the GC neither
   scans nor moves row storage — the point of the dense GF(2) plane — and
   element access compiles to a direct load/store with no boxing (the
   [int] kind, unlike [int64], has immediate elements on a 64-bit host).
   A vector is a view of [nw] words of a store starting at word [off]:
   {!create} gives a vector its own store, {!view} lays one over a store
   that several vectors share (a {!Matrix}'s rows).  Bit [i] of the vector
   is bit [i mod Sys.int_size] of word [off + i / Sys.int_size]. *)

module A1 = Bigarray.Array1

type words = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

type t = { len : int; nw : int; off : int; words : words }

let bits_per_word = Sys.int_size

let words_for len = (len + bits_per_word - 1) / bits_per_word

let create_words n =
  let w : words = A1.create Bigarray.int Bigarray.c_layout n in
  A1.fill w 0;
  w

(* Every vector owns at least one word, so a 0-bit row still has a
   place in its store. *)
let row_words len = Int.max 1 (words_for len)

let create len =
  if len < 0 then invalid_arg "Bitvec.create";
  let nw = row_words len in
  { len; nw; off = 0; words = create_words nw }

let view words ~off ~len =
  let nw = row_words len in
  if len < 0 || off < 0 || off + nw > A1.dim words then invalid_arg "Bitvec.view";
  { len; nw; off; words }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of range"

let get v i =
  check v i;
  A1.unsafe_get v.words (v.off + (i / bits_per_word)) lsr (i mod bits_per_word) land 1 = 1

let set v i b =
  check v i;
  let w = v.off + (i / bits_per_word) and o = i mod bits_per_word in
  if b then A1.unsafe_set v.words w (A1.unsafe_get v.words w lor (1 lsl o))
  else A1.unsafe_set v.words w (A1.unsafe_get v.words w land lnot (1 lsl o))

let flip v i =
  check v i;
  let w = v.off + (i / bits_per_word) and o = i mod bits_per_word in
  A1.unsafe_set v.words w (A1.unsafe_get v.words w lxor (1 lsl o))

let copy v =
  let words = A1.create Bigarray.int Bigarray.c_layout v.nw in
  A1.blit (A1.sub v.words v.off v.nw) words;
  { v with off = 0; words }

let blit ~src ~dst =
  if src.len <> dst.len then invalid_arg "Bitvec.blit: length mismatch";
  for w = 0 to dst.nw - 1 do
    A1.unsafe_set dst.words (dst.off + w) (A1.unsafe_get src.words (src.off + w))
  done

let xor_into ~src ~dst =
  if src.len <> dst.len then invalid_arg "Bitvec.xor_into: length mismatch";
  let s = src.words and d = dst.words and so = src.off and doff = dst.off in
  for w = 0 to dst.nw - 1 do
    A1.unsafe_set d (doff + w) (A1.unsafe_get d (doff + w) lxor A1.unsafe_get s (so + w))
  done

let is_zero v =
  let n = v.off + v.nw in
  let rec go w = w >= n || (A1.unsafe_get v.words w = 0 && go (w + 1)) in
  go v.off

(* Index of the lowest set bit of a nonzero word. *)
let lowest_bit_index w =
  let rec go w i = if w land 1 = 1 then i else go (w lsr 1) (i + 1) in
  go w 0

let first_set v =
  let rec go w =
    if w >= v.nw then None
    else
      let x = A1.unsafe_get v.words (v.off + w) in
      if x = 0 then go (w + 1) else Some ((w * bits_per_word) + lowest_bit_index x)
  in
  go 0

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let popcount v =
  let n = v.off + v.nw in
  let rec go w acc =
    if w >= n then acc else go (w + 1) (acc + popcount_word (A1.unsafe_get v.words w))
  in
  go v.off 0

let equal a b =
  a.len = b.len
  &&
  let n = a.nw in
  let rec go i =
    i >= n
    || A1.unsafe_get a.words (a.off + i) = A1.unsafe_get b.words (b.off + i) && go (i + 1)
  in
  go 0

let iter_set v f =
  for w = 0 to v.nw - 1 do
    let bits = ref (A1.unsafe_get v.words (v.off + w)) in
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
