(* Eight 32-bit words per set: minterm m is bit (m land 31) of word
   (m lsr 5).  A 63-bit int holds no power-of-two word wider than 32
   bits, and with 32 a bit flip of minterm bit b < 5 is a shift inside
   each word while b >= 5 pairs whole words. *)

let words = 8
let all_ones = 0xFFFF_FFFF

(* [low.(b)]: the positions of a word whose minterm bit b (b < 5) is 0 *)
let low = [| 0x5555_5555; 0x3333_3333; 0x0F0F_0F0F; 0x00FF_00FF; 0x0000_FFFF |]

let create n = Array.make (n * words) 0

let clear (s : int array) o =
  for j = 0 to words - 1 do
    Array.unsafe_set s (o + j) 0
  done

let popcount w =
  let w = w - ((w lsr 1) land 0x5555_5555) in
  let w = (w land 0x3333_3333) + ((w lsr 2) land 0x3333_3333) in
  let w = (w + (w lsr 4)) land 0x0F0F_0F0F in
  ((w * 0x0101_0101) lsr 24) land 0xFF

(* index of the lowest set bit of a non-zero word *)
let ntz w = popcount ((w land -w) - 1)

let add (s : int array) o m =
  let i = o + (m lsr 5) in
  Array.unsafe_set s i (Array.unsafe_get s i lor (1 lsl (m land 31)))

let rec is_empty_from (s : int array) o j =
  j >= words || (Array.unsafe_get s (o + j) = 0 && is_empty_from s o (j + 1))

let is_empty s o = is_empty_from s o 0

let rec disjoint_from (a : int array) ao (b : int array) bo j =
  j >= words
  || Array.unsafe_get a (ao + j) land Array.unsafe_get b (bo + j) = 0
     && disjoint_from a ao b bo (j + 1)

let disjoint a ao b bo = disjoint_from a ao b bo 0

(* [subset a b]: no member of [a] outside [b] *)
let rec subset_from (a : int array) ao (b : int array) bo j =
  j >= words
  || Array.unsafe_get a (ao + j) land lnot (Array.unsafe_get b (bo + j)) = 0
     && subset_from a ao b bo (j + 1)

let subset a ao b bo = subset_from a ao b bo 0

let rec inter_cardinal_from (a : int array) ao (b : int array) bo j n =
  if j >= words then n
  else
    inter_cardinal_from a ao b bo (j + 1)
      (n + popcount (Array.unsafe_get a (ao + j) land Array.unsafe_get b (bo + j)))

let inter_cardinal a ao b bo = inter_cardinal_from a ao b bo 0 0

let copy (s : int array) so (d : int array) d_o =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j) (Array.unsafe_get s (so + j))
  done

let inter_into (d : int array) d_o (s : int array) so =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j) (Array.unsafe_get d (d_o + j) land Array.unsafe_get s (so + j))
  done

let diff_into (d : int array) d_o (s : int array) so =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j)
      (Array.unsafe_get d (d_o + j) land lnot (Array.unsafe_get s (so + j)))
  done

let union_into (d : int array) d_o (s : int array) so =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j) (Array.unsafe_get d (d_o + j) lor Array.unsafe_get s (so + j))
  done

let xor_into (d : int array) d_o (s : int array) so =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j) (Array.unsafe_get d (d_o + j) lxor Array.unsafe_get s (so + j))
  done

(* [d] := [a] minus [b] *)
let diff3 (d : int array) d_o (a : int array) ao (b : int array) bo =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j)
      (Array.unsafe_get a (ao + j) land lnot (Array.unsafe_get b (bo + j)))
  done

(* [d] := [d] or ([a] and [b]) *)
let union_inter_into (d : int array) d_o (a : int array) ao (b : int array) bo =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j)
      (Array.unsafe_get d (d_o + j)
      lor (Array.unsafe_get a (ao + j) land Array.unsafe_get b (bo + j)))
  done

(* word [j] of the minterms whose bit [b] is [v] (0 or 1) *)
let bit_word b v j =
  if b < 5 then if v = 0 then Array.unsafe_get low b else all_ones lxor Array.unsafe_get low b
  else if (j lsr (b - 5)) land 1 = v then all_ones
  else 0

(* word [j] of the 2^nvars minterms *)
let universe_word ~nvars j =
  if nvars >= 5 then if j < 1 lsl (nvars - 5) then all_ones else 0
  else if j = 0 then (1 lsl (1 lsl nvars)) - 1
  else 0

let universe (d : int array) d_o ~nvars =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j) (universe_word ~nvars j)
  done

(* keep the members whose minterm bit [b] is [v] *)
let inter_bit (d : int array) d_o b v =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j) (Array.unsafe_get d (d_o + j) land bit_word b v j)
  done

let rec cube_word ~mask ~value j b w =
  if w = 0 || mask lsr b = 0 then w
  else if mask lsr b land 1 = 1 then
    cube_word ~mask ~value j (b + 1) (w land bit_word b (value lsr b land 1) j)
  else cube_word ~mask ~value j (b + 1) w

let cube_into (d : int array) d_o ~nvars ~mask ~value =
  for j = 0 to words - 1 do
    Array.unsafe_set d (d_o + j) (cube_word ~mask ~value j 0 (universe_word ~nvars j))
  done

(* [d] := [s] and flip_b [s], where flip_b swaps every minterm with the one
   differing in bit [b]: the minterms m with both m and m xor 2^b in [s] *)
let flip_inter (d : int array) d_o (s : int array) so b =
  if b < 5 then begin
    let p = 1 lsl b and lo = Array.unsafe_get low b in
    for j = 0 to words - 1 do
      let w = Array.unsafe_get s (so + j) in
      Array.unsafe_set d (d_o + j) (w land (((w lsr p) land lo) lor ((w land lo) lsl p)))
    done
  end
  else begin
    let dj = 1 lsl (b - 5) in
    for j = 0 to words - 1 do
      Array.unsafe_set d (d_o + j)
        (Array.unsafe_get s (so + j) land Array.unsafe_get s (so + (j lxor dj)))
    done
  end

let rec next_from (s : int array) o j w =
  if w <> 0 then (j lsl 5) + ntz w
  else if j + 1 >= words then -1
  else next_from s o (j + 1) (Array.unsafe_get s (o + j + 1))

let next s o m =
  if m >= words lsl 5 then -1
  else
    let j = m lsr 5 in
    next_from s o j (Array.unsafe_get s (o + j) land (all_ones lsl (m land 31)))

let rec first_inter_from (a : int array) ao (b : int array) bo j =
  if j >= words then -1
  else
    let w = Array.unsafe_get a (ao + j) land Array.unsafe_get b (bo + j) in
    if w <> 0 then (j lsl 5) + ntz w else first_inter_from a ao b bo (j + 1)

(* the smallest member of [a] and [b], or -1 *)
let first_inter a ao b bo = first_inter_from a ao b bo 0
