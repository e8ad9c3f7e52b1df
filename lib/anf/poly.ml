(* Canonical representation: array of distinct monomials, sorted in the
   descending order of Monomial.compare (so index 0 is the leading term). *)
type t = Monomial.t array

let zero : t = [||]
let one : t = [| Monomial.one |]
let var x = [| Monomial.var x |]
let constant b = if b then one else zero

(* [Array.of_list] of fresh monomials, filled from the static [one]
   instead: past 256 slots, [Array.of_list] would force a minor
   collection to promote its first element. *)
let array_of_list ms =
  let a = Array.make (List.length ms) Monomial.one in
  List.iteri (fun i m -> Array.unsafe_set a i m) ms;
  a

(* Normalise a multiset of monomials: sort, then drop pairs (GF(2)). *)
let of_monomials ms =
  let a = array_of_list ms in
  Array.stable_sort Monomial.compare a;
  let n = Array.length a in
  let k = ref 0 and i = ref 0 in
  while !i < n do
    if !i + 1 < n && Monomial.equal a.(!i) a.(!i + 1) then i := !i + 2
    else begin
      a.(!k) <- a.(!i);
      incr k;
      incr i
    end
  done;
  if !k = n then a else Array.sub a 0 !k

let monomials p = Array.to_list p
let n_terms p = Array.length p
let term (p : t) i = p.(i)

let leading p =
  if Array.length p = 0 then invalid_arg "Poly.leading: zero polynomial";
  p.(0)

let is_zero p = Array.length p = 0
let is_one p = Array.length p = 1 && Monomial.is_one p.(0)
let has_constant_term p = Array.length p > 0 && Monomial.is_one p.(Array.length p - 1)
let degree p = if Array.length p = 0 then 0 else Monomial.degree p.(0)

let vars_array p = Monomial.support p

let vars p = Array.to_list (vars_array p)

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
    (* monomials without [target] pass through, still sorted and distinct;
       each monomial with it becomes (monomial / target) * by.  Normalise
       only the products, then merge the two sorted parts. *)
    let untouched = ref [] and products = ref [] in
    for i = Array.length p - 1 downto 0 do
      let m = p.(i) in
      if Monomial.contains m target then begin
        let rest = Monomial.remove_var m target in
        Array.iter (fun mb -> products := Monomial.mul rest mb :: !products) by
      end
      else untouched := m :: !untouched
    done;
    add (array_of_list !untouched) (of_monomials !products)
  end

let rewrite lit p =
  if not (Array.exists (Monomial.rewrites lit) p) then p
  else begin
    (* map every monomial once; a negated root doubles it *)
    let buf = Array.make (degree p) 0 in
    let acc = ref [] in
    Array.iter
      (fun m ->
        let n = Monomial.rewrite lit m buf in
        if n >= 0 then begin
          let negated = ref 0 in
          for i = 0 to n - 1 do
            if buf.(i) land 1 = 1 then incr negated
          done;
          for mask = 0 to (1 lsl !negated) - 1 do
            acc := Monomial.of_lits buf n ~mask :: !acc
          done
        end)
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
  match p with
  | [||] -> Tautology
  | [| m |] when Monomial.is_one m -> Contradiction
  | [| m |] when Monomial.degree m = 1 ->
      (* x = 0 *)
      Assign (Monomial.max_var m, false)
  | [| m; c |] when Monomial.is_one c && Monomial.degree m = 1 ->
      (* x + 1 = 0, i.e. x = 1 *)
      Assign (Monomial.max_var m, true)
  | [| m; c |] when Monomial.is_one c ->
      (* x_{i1}..x_{ip} + 1 = 0: all variables forced to 1 *)
      All_ones (Monomial.vars m)
  | [| a; b |] when Monomial.degree a = 1 && Monomial.degree b = 1 ->
      (* x + y = 0: x = y.  Canonical order puts the larger index first. *)
      let x = Monomial.max_var a and y = Monomial.max_var b in
      Equiv (max x y, min x y, false)
  | [| a; b; c |] when Monomial.is_one c && Monomial.degree a = 1 && Monomial.degree b = 1 ->
      (* x + y + 1 = 0: x = not y *)
      let x = Monomial.max_var a and y = Monomial.max_var b in
      Equiv (max x y, min x y, true)
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

let hash (p : t) = Array.fold_left Monomial.hash_fold (Array.length p) p land max_int

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
