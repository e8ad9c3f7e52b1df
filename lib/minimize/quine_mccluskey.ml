let max_vars = 8

(* Per-domain scratch: one byte per cube, indexed by [mask lsl nvars lor
   value] (under 2^16 entries for nvars <= 8).  Bit 0 marks a cube present
   in the tabulation, bit 1 a cube merged into a larger one.  Cubes at
   different levels have different mask popcounts, so every level shares
   the table; only the touched entries are cleared after a call. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.make (1 lsl (2 * max_vars)) '\000')

let present = 1
let merged = 2

(* Tabulation by neighbour lookup: a cube whose fixed bit b is 0 merges
   with the cube that has b set, found in O(1) in the table, so a level of
   n cubes costs O(n * nvars) rather than the pairwise O(n^2).  Cubes that
   never merge are prime. *)
let prime_implicants ~nvars on_set =
  if nvars < 0 || nvars > max_vars then invalid_arg "Quine_mccluskey: nvars out of range";
  List.iter
    (fun m -> if m < 0 || m >= 1 lsl nvars then invalid_arg "Quine_mccluskey: minterm out of range")
    on_set;
  let tbl = Domain.DLS.get scratch in
  let flags i = Char.code (Bytes.unsafe_get tbl i) in
  let set_flags i f = Bytes.unsafe_set tbl i (Char.unsafe_chr f) in
  (* [add i acc] puts cube [i] into the next level unless already there *)
  let add i acc = if flags i = 0 then (set_flags i present; i :: acc) else acc in
  let full = (1 lsl nvars) - 1 in
  let initial = List.fold_left (fun acc m -> add ((full lsl nvars) lor m) acc) [] on_set in
  let rec round level touched primes =
    match level with
    | [] ->
        List.iter (fun l -> List.iter (fun i -> set_flags i 0) l) touched;
        primes
    | _ ->
        let next =
          List.fold_left
            (fun next i ->
              let mask = i lsr nvars in
              let next = ref next in
              for b = 0 to nvars - 1 do
                let bit = 1 lsl b in
                if mask land bit <> 0 && i land bit = 0 && flags (i lor bit) <> 0 then begin
                  set_flags i (present lor merged);
                  set_flags (i lor bit) (present lor merged);
                  next := add (i land lnot (bit lsl nvars)) !next
                end
              done;
              !next)
            [] level
        in
        let primes = List.fold_left (fun acc i -> if flags i = present then i :: acc else acc) primes level in
        round next (level :: touched) primes
  in
  round initial [] []
  (* index order is (mask, value) order, i.e. Cube.compare's *)
  |> List.sort Int.compare
  |> List.map (fun i -> Cube.make ~mask:(i lsr nvars) ~value:(i land full))
