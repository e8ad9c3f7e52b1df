module S = Minterm_set

(* per-domain primes of [minimise_into] *)
let primes = Domain.DLS.new_key (fun () -> Array.make Quine_mccluskey.max_primes 0)

(* [minimise] of the on-set at offset 0 of [on], the cubes packed as
   [mask lsl 8 lor value] into [cover]; returns how many *)
let minimise_into ~nvars (on : int array) (cover : int array) =
  let primes = Domain.DLS.get primes in
  Cover.select ~nvars on primes (Quine_mccluskey.primes_into ~nvars on primes) cover

(* per-domain on-set of [minimise_anf], and a cube set beside it *)
let table = Domain.DLS.new_key (fun () -> S.create 2)

(* The on-set of parity + sum of the monomials: the minterms containing a
   monomial's mask are the and of its bits' half-sets, and the sum is the
   xor of those. *)
let minimise_anf ~nvars ~parity (masks : int array) n cover =
  if nvars < 0 || nvars > Quine_mccluskey.max_vars then
    invalid_arg "Espresso.minimise_anf: nvars out of range";
  let t = Domain.DLS.get table in
  if parity then S.universe t 0 ~nvars else S.clear t 0;
  for i = 0 to n - 1 do
    let mask = masks.(i) in
    if mask lsr nvars <> 0 then invalid_arg "Espresso.minimise_anf: mask out of range";
    S.cube_into t S.words ~nvars ~mask ~value:mask;
    S.xor_into t 0 t S.words
  done;
  minimise_into ~nvars t cover

let minimise ~nvars ~on_set =
  if nvars < 0 || nvars > Quine_mccluskey.max_vars then
    invalid_arg "Quine_mccluskey: nvars out of range";
  let on = S.create 1 in
  List.iter
    (fun m ->
      if m < 0 || m >= 1 lsl nvars then invalid_arg "Quine_mccluskey: minterm out of range";
      S.add on 0 m)
    on_set;
  let cover = Array.make 256 0 in
  List.init (minimise_into ~nvars on cover) (fun t ->
      Cube.make ~mask:(cover.(t) lsr 8) ~value:(cover.(t) land 0xFF))

let verify ~nvars ~on_set cubes =
  let on = List.sort_uniq Int.compare on_set in
  let covered m = List.exists (fun c -> Cube.covers c m) cubes in
  let rec go m ok =
    if m >= 1 lsl nvars then ok
    else go (m + 1) (ok && covered m = List.mem m on)
  in
  go 0 true
