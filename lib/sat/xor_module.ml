type xor = { vars : int list; parity : bool }

let make_xor ~vars ~parity =
  (* duplicated variables cancel in GF(2) *)
  let sorted = List.sort Int.compare vars in
  let rec dedup = function
    | a :: b :: rest when Int.equal a b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  { vars = dedup sorted; parity }

let pp_xor ppf x =
  List.iteri
    (fun i v ->
      if i > 0 then Format.pp_print_string ppf " + ";
      Format.fprintf ppf "x%d" v)
    x.vars;
  Format.fprintf ppf " = %d" (if x.parity then 1 else 0)

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

(* A clause over variable set S with negation pattern N (bit i set iff the
   literal on the i-th smallest variable of S is negated) forbids exactly
   the assignment "x_i = (i in N)", whose parity is |N| mod 2.  The XOR
   constraint (+) S = c forbids all assignments of parity 1-c, i.e. the
   encoding contains exactly the 2^(k-1) clauses whose patterns have parity
   1-c. *)
(* Canonical packed key for a sorted distinct variable list: 4 bytes per
   variable, little-endian.  String keys hash by scanning bytes; the
   (int list) key this replaces made every probe recurse over list cells
   with the polymorphic hasher (the recovery loop's hot path). *)
let pack_vars vars =
  let n = List.length vars in
  let b = Bytes.create (4 * n) in
  List.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) vars;
  Bytes.unsafe_to_string b

let recover ?(max_arity = 5) f =
  let groups : (string, int list * (int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun c ->
      let vars = Cnf.Clause.vars c in
      let k = List.length vars in
      (* Canonicalize before the arity check: [Clause.of_list] collapses
         duplicate literals (so [length] counts distinct literals), and a
         tautology (x ∨ ¬x ∨ ...) is never part of an XOR encoding — skip
         it outright instead of trusting the [k = length] comparison to
         reject it.  A clause carrying both polarities of a variable would
         otherwise fold both into one pattern bit and corrupt the
         completeness count. *)
      if
        (not (Cnf.Clause.is_tautology c))
        && k >= 2 && k <= max_arity
        && k = Cnf.Clause.length c
      then begin
        let pattern =
          List.fold_left
            (fun acc l ->
              if Cnf.Lit.negated l then
                let rec index i = function
                  | [] -> assert false
                  | v :: rest -> if v = Cnf.Lit.var l then i else index (i + 1) rest
                in
                acc lor (1 lsl index 0 vars)
              else acc)
            0 (Cnf.Clause.to_list c)
        in
        let key = pack_vars vars in
        let tbl =
          match Hashtbl.find_opt groups key with
          | Some (_, t) -> t
          | None ->
              let t = Hashtbl.create 8 in
              Hashtbl.replace groups key (vars, t);
              t
        in
        Hashtbl.replace tbl pattern ()
      end)
    (Cnf.Formula.clauses f);
  Hashtbl.fold
    (fun _key (vars, patterns) acc ->
      let k = List.length vars in
      let needed = 1 lsl (k - 1) in
      let check forbidden_parity =
        Hashtbl.length patterns >= needed
        &&
        let count = ref 0 in
        Hashtbl.iter
          (fun p () -> if popcount p land 1 = forbidden_parity then incr count)
          patterns;
        !count = needed
      in
      let acc = if check 0 then make_xor ~vars ~parity:true :: acc else acc in
      if check 1 then make_xor ~vars ~parity:false :: acc else acc)
    groups []

let clauses_of_xor x =
  let vars = Array.of_list x.vars in
  let k = Array.length vars in
  if k = 0 then
    if x.parity then [ Cnf.Clause.of_list [] ] else []
  else begin
    let forbidden_parity = if x.parity then 0 else 1 in
    let clauses = ref [] in
    for pattern = 0 to (1 lsl k) - 1 do
      if popcount pattern land 1 = forbidden_parity then begin
        let lits =
          List.init k (fun i ->
              Cnf.Lit.make vars.(i) ~negated:(pattern lsr i land 1 = 1))
        in
        clauses := Cnf.Clause.of_list lits :: !clauses
      end
    done;
    !clauses
  end
