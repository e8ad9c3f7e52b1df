(* [slots] holds id + 1 (0 is empty) at a power-of-two size kept at least
   twice [n]; [arrays] is id -> array, its spare slots holding the static
   [[||]], so growing it never makes an array around a fresh block. *)
type t = { mutable arrays : int array array; mutable n : int; mutable slots : int array }

let rec pow2_above n p = if p >= n then p else pow2_above n (2 * p)

let create ?(size_hint = 16) () =
  let cap = pow2_above size_hint 16 in
  { arrays = Array.make cap [||]; n = 0; slots = Array.make (2 * cap) 0 }

let count t = t.n
let get t id = t.arrays.(id)
let store t = t.arrays

let rec mix_from (a : int array) h i n =
  if i >= n then h else mix_from a ((h + Array.unsafe_get a i) * 0x1F3779B97F4A7C15) (i + 1) n

let hash_prefix a n =
  let h = mix_from a (n + 1) 0 n in
  h lxor (h lsr 29)

let rec equal_prefix (b : int array) (a : int array) i n =
  i >= n || (Array.unsafe_get b i = Array.unsafe_get a i && equal_prefix b a (i + 1) n)

let rec probe t (a : int array) n i =
  let s = Array.unsafe_get t.slots i in
  if s = 0 then i
  else
    let b = Array.unsafe_get t.arrays (s - 1) in
    if Array.length b = n && equal_prefix b a 0 n then i
    else probe t a n ((i + 1) land (Array.length t.slots - 1))

let slot t a n = probe t a n (hash_prefix a n land (Array.length t.slots - 1))

let id_at t s = t.slots.(s) - 1

let grow t =
  let cap = 2 * Array.length t.arrays in
  let arrays = Array.make cap [||] in
  Array.blit t.arrays 0 arrays 0 t.n;
  t.arrays <- arrays;
  t.slots <- Array.make (2 * cap) 0;
  for id = 0 to t.n - 1 do
    let a = arrays.(id) in
    t.slots.(slot t a (Array.length a)) <- id + 1
  done

let insert t s a =
  if t.slots.(s) <> 0 then invalid_arg "Intern.insert: slot taken";
  let id = t.n in
  t.arrays.(id) <- a;
  t.slots.(s) <- id + 1;
  t.n <- id + 1;
  if t.n = Array.length t.arrays then grow t;
  id
