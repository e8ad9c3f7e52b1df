type t = { mask : int; value : int }

let make ~mask ~value =
  if value land lnot mask <> 0 then invalid_arg "Cube.make: value outside mask";
  { mask; value }

let covers c m = m land c.mask = c.value

let literals ~nvars c =
  let rec go v acc =
    if v < 0 then acc
    else if c.mask lsr v land 1 = 1 then go (v - 1) ((v, c.value lsr v land 1 = 1) :: acc)
    else go (v - 1) acc
  in
  go (nvars - 1) []

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let n_fixed c = popcount c.mask

let minterms ~nvars c =
  let free_bits =
    let rec go v acc = if v < 0 then acc else if c.mask lsr v land 1 = 0 then go (v - 1) (v :: acc) else go (v - 1) acc in
    go (nvars - 1) []
  in
  let rec expand bits base =
    match bits with
    | [] -> [ base ]
    | b :: rest -> expand rest base @ expand rest (base lor (1 lsl b))
  in
  expand free_bits c.value

let equal a b = a.mask = b.mask && a.value = b.value
let compare a b = Stdlib.compare (a.mask, a.value) (b.mask, b.value)

let pp ~nvars ppf c =
  let lits = literals ~nvars c in
  if lits = [] then Format.pp_print_string ppf "(true)"
  else
    List.iteri
      (fun i (v, pos) ->
        if i > 0 then Format.pp_print_char ppf ' ';
        Format.fprintf ppf "%sx%d" (if pos then "" else "!") v)
      lits
