(* Sorted array of distinct literals. *)
type t = Lit.t array

(* [x < y]: the array of [x], [y] and [z], ascending. *)
let sorted3 x y z =
  if Lit.compare y z < 0 then [| x; y; z |]
  else if Lit.compare x z < 0 then [| x; z; y |]
  else [| z; x; y |]

(* Two and three distinct literals, most of the clauses the generators and
   the ANF-to-CNF conversion build, are sorted without the lists and
   closures of [List.sort_uniq]. *)
let of_list lits =
  match lits with
  | [ a; b ] when not (Lit.equal a b) ->
      if Lit.compare a b < 0 then [| a; b |] else [| b; a |]
  | [ a; b; c ] when not (Lit.equal a b || Lit.equal a c || Lit.equal b c) ->
      if Lit.compare a b < 0 then sorted3 a b c else sorted3 b a c
  | _ -> Array.of_list (List.sort_uniq Lit.compare lits)

let rec ascending (a : t) i =
  i >= Array.length a || (Lit.compare a.(i - 1) a.(i) < 0 && ascending a (i + 1))

let of_sorted_array lits =
  if not (ascending lits 1) then invalid_arg "Clause.of_sorted_array: literals not strictly ascending";
  lits

let to_list c = Array.to_list c
let length c = Array.length c
let get (c : t) i = c.(i)
let is_empty c = Array.length c = 0

let is_tautology c =
  (* sorted by packed index, so l and ¬l are adjacent *)
  let n = Array.length c in
  let rec go i =
    i + 1 < n && (Lit.equal c.(i) (Lit.neg c.(i + 1)) || go (i + 1))
  in
  go 0

let mem c l = Array.exists (Lit.equal l) c

let vars c =
  List.sort_uniq Int.compare (Array.to_list (Array.map Lit.var c))

let max_var c = Array.fold_left (fun acc l -> Int.max acc (Lit.var l)) (-1) c

let n_positive c =
  Array.fold_left (fun acc l -> if Lit.negated l then acc else acc + 1) 0 c

let eval assignment c = Array.exists (Lit.eval assignment) c
let subsumes a b = Array.for_all (fun l -> mem b l) a

(* monomorphic array comparisons, same order as the polymorphic one gave
   (length first, then lexicographic on literals) *)
let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (Lit.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i >= la then 0
      else
        let c = Lit.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let pp ppf c =
  Format.pp_print_char ppf '(';
  Array.iteri
    (fun i l ->
      if i > 0 then Format.pp_print_string ppf " | ";
      Lit.pp ppf l)
    c;
  Format.pp_print_char ppf ')'
