(* Canonical representation: array of distinct monomials, sorted in the
   descending order of Monomial.compare (so index 0 is the leading term). *)
type t = Monomial.t array

let zero : t = [||]
let one : t = [| Monomial.one |]
let var x = [| Monomial.var x |]
let constant b = if b then one else zero

(* Normalise a multiset of monomials: sort, then drop pairs (GF(2)). *)
let of_monomials ms =
  let sorted = List.sort Monomial.compare ms in
  let rec dedup acc = function
    | [] -> List.rev acc
    | [ m ] -> List.rev (m :: acc)
    | m1 :: m2 :: rest ->
        if Monomial.equal m1 m2 then dedup acc rest else dedup (m1 :: acc) (m2 :: rest)
  in
  Array.of_list (dedup [] sorted)

let monomials p = Array.to_list p
let n_terms p = Array.length p

let leading p =
  if Array.length p = 0 then invalid_arg "Poly.leading: zero polynomial";
  p.(0)

let is_zero p = Array.length p = 0
let is_one p = Array.length p = 1 && Monomial.is_one p.(0)
let has_constant_term p = Array.length p > 0 && Monomial.is_one p.(Array.length p - 1)
let degree p = if Array.length p = 0 then 0 else Monomial.degree p.(0)

let vars p =
  let module S = Set.Make (Int) in
  let s =
    Array.fold_left (fun s m -> List.fold_left (fun s x -> S.add x s) s (Monomial.vars m)) S.empty p
  in
  S.elements s

let max_var p = Array.fold_left (fun acc m -> max acc (Monomial.max_var m)) (-1) p
let contains_var p x = Array.exists (fun m -> Monomial.contains m x) p

(* Merge two sorted monomial arrays with cancellation. *)
let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) Monomial.one in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let c = Monomial.compare a.(!i) b.(!j) in
      if c < 0 then (out.(!k) <- a.(!i); incr i; incr k)
      else if c > 0 then (out.(!k) <- b.(!j); incr j; incr k)
      else (incr i; incr j)
    done;
    while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
    while !j < lb do out.(!k) <- b.(!j); incr j; incr k done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let mul_monomial p m =
  if Monomial.is_one m then p
  else of_monomials (List.map (fun t -> Monomial.mul t m) (Array.to_list p))

(* Build the full cross-product monomial list and normalise once: repeated
   merge-adds would be quadratic in the result size. *)
let mul (a : t) (b : t) =
  if is_zero a || is_zero b then zero
  else begin
    let acc = ref [] in
    Array.iter
      (fun mb -> Array.iter (fun ma -> acc := Monomial.mul ma mb :: !acc) a)
      b;
    of_monomials !acc
  end

let subst p ~target ~by =
  if not (contains_var p target) then p
  else begin
    (* monomials without [target] pass through; each monomial with it is
       replaced by (monomial / target) * by; normalise once at the end *)
    let acc = ref [] in
    Array.iter
      (fun m ->
        if Monomial.contains m target then begin
          let rest = Monomial.remove_var m target in
          Array.iter (fun mb -> acc := Monomial.mul rest mb :: !acc) by
        end
        else acc := m :: !acc)
      p;
    of_monomials !acc
  end

let assign p ~target ~value = subst p ~target ~by:(constant value)

let eval assignment p =
  Array.fold_left (fun acc m -> acc <> Monomial.eval assignment m) false p

type shape =
  | Tautology
  | Contradiction
  | Assign of int * bool
  | Equiv of int * int * bool
  | All_ones of int list
  | Other

let classify p =
  match Array.to_list p with
  | [] -> Tautology
  | [ m ] when Monomial.is_one m -> Contradiction
  | [ m ] when Monomial.degree m = 1 ->
      (* x = 0 *)
      (match Monomial.vars m with [ x ] -> Assign (x, false) | _ -> Other)
  | [ m; c ] when Monomial.is_one c && Monomial.degree m = 1 ->
      (* x + 1 = 0, i.e. x = 1 *)
      (match Monomial.vars m with [ x ] -> Assign (x, true) | _ -> Other)
  | [ m; c ] when Monomial.is_one c ->
      (* x_{i1}..x_{ip} + 1 = 0: all variables forced to 1 *)
      All_ones (Monomial.vars m)
  | [ a; b ] when Monomial.degree a = 1 && Monomial.degree b = 1 ->
      (* x + y = 0: x = y.  Canonical order puts the larger index first. *)
      (match (Monomial.vars a, Monomial.vars b) with
      | [ x ], [ y ] -> Equiv (max x y, min x y, false)
      | _ -> Other)
  | [ a; b; c ] when Monomial.is_one c && Monomial.degree a = 1 && Monomial.degree b = 1 ->
      (* x + y + 1 = 0: x = not y *)
      (match (Monomial.vars a, Monomial.vars b) with
      | [ x ], [ y ] -> Equiv (max x y, min x y, true)
      | _ -> Other)
  | _ -> Other

let is_linear p = degree p <= 1

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Monomial.equal a b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Monomial.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash (p : t) = Hashtbl.hash (Array.map Monomial.hash p)

let add_to_buffer b p =
  if Array.length p = 0 then Buffer.add_char b '0'
  else
    Array.iteri
      (fun i m ->
        if i > 0 then Buffer.add_string b " + ";
        Monomial.add_to_buffer b m)
      p

let to_string p =
  let b = Buffer.create 64 in
  add_to_buffer b p;
  Buffer.contents b

let pp ppf p = Format.pp_print_string ppf (to_string p)
