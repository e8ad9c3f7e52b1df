module P = Anf.Poly
module M = Anf.Monomial
module L = Cnf.Lit
module C = Cnf.Clause

module Mtbl = Hashtbl.Make (struct
  type t = M.t

  let equal = M.equal
  let hash = M.hash
end)

type conversion = {
  formula : Cnf.Formula.t;
  anf_nvars : int;
  mono_of_var : (int, M.t) Hashtbl.t;
  n_monomial_aux : int;
  n_cut_aux : int;
  n_karnaugh : int;
  n_tseitin : int;
  xors : (int list * bool) list;
}

(* A piece is an XOR of terms equated to [parity]; a term is either a
   monomial over ANF variables or a single auxiliary CNF variable
   introduced by XOR cutting. *)
type term = Mono of M.t | Cut_aux of int

type state = {
  config : Config.t;
  anf_nvars : int; (* CNF variables below it are the ANF variables *)
  mutable clauses : C.t list; (* reversed *)
  var_of_mono : int Mtbl.t;
  mono_of_var : (int, M.t) Hashtbl.t;
  mutable next_var : int;
  mutable n_monomial_aux : int;
  mutable n_cut_aux : int;
  mutable n_karnaugh : int;
  mutable n_tseitin : int;
  mutable xors : (int list * bool) list; (* reversed, like [clauses] *)
}

let emit st c = st.clauses <- c :: st.clauses

(* Record the XOR row underlying a linear piece so SAT stages can hand it
   to the solver's parity engine alongside the clausal encoding. *)
let note_xor st (x : Sat.Xor_module.xor) =
  st.xors <- (x.Sat.Xor_module.vars, x.Sat.Xor_module.parity) :: st.xors

let fresh_cut_var st =
  let v = st.next_var in
  st.next_var <- v + 1;
  st.n_cut_aux <- st.n_cut_aux + 1;
  v

(* Auxiliary variable a with a <-> (x1 & ... & xk), the standard AND
   encoding: (~a | xi) for each i and (a | ~x1 | ... | ~xk). *)
let monomial_aux_var st m =
  match Mtbl.find_opt st.var_of_mono m with
  | Some v -> v
  | None ->
      let v = st.next_var in
      st.next_var <- v + 1;
      st.n_monomial_aux <- st.n_monomial_aux + 1;
      Mtbl.replace st.var_of_mono m v;
      Hashtbl.replace st.mono_of_var v m;
      let vars = M.vars m in
      List.iter (fun x -> emit st (C.of_list [ L.neg_of v; L.pos x ])) vars;
      emit st (C.of_list (L.pos v :: List.map L.neg_of vars));
      v

(* distinct CNF variables a piece touches when treated as a function of
   plain variables (Karnaugh path): monomial variables plus cut variables,
   ascending *)
let piece_vars terms =
  List.sort_uniq Int.compare
    (List.concat_map (function Mono m -> M.vars m | Cut_aux v -> [ v ]) terms)

(* Minimised Karnaugh maps, one table per domain (a daemon worker, or a CLI
   or bench process), keyed on the piece's variable count k and its 2^k-bit
   truth table.  A value packs the cover as 2 bytes (mask, value) per cube,
   in Espresso's order, so the table holds no pointers for the GC to scan.
   Espresso is a pure function of (k, on-set): a hit emits exactly the
   clauses a miss would. *)
let memo_cap = 4096

let memo : (string, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let minimised_cover ~k key =
  let tbl = Domain.DLS.get memo in
  match Hashtbl.find_opt tbl key with
  | Some cover -> cover
  | None ->
      let on_set = ref [] in
      for tm = (1 lsl k) - 1 downto 0 do
        if Char.code key.[1 + (tm lsr 3)] lsr (tm land 7) land 1 = 1 then
          on_set := tm :: !on_set
      done;
      let cubes = Minimize.Espresso.minimise ~nvars:k ~on_set:!on_set in
      let cover = Bytes.create (2 * List.length cubes) in
      List.iteri
        (fun j (c : Minimize.Cube.t) ->
          Bytes.set cover (2 * j) (Char.chr c.mask);
          Bytes.set cover ((2 * j) + 1) (Char.chr c.value))
        cubes;
      let cover = Bytes.unsafe_to_string cover in
      if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
      Hashtbl.replace tbl key cover;
      cover

(* Karnaugh-map path: tabulate the on-set of the piece (the forbidden
   assignments), minimise it, and negate each cube into a clause.  [vars]
   is {!piece_vars}, at most {!Minimize.Quine_mccluskey.max_vars} long. *)
let karnaugh_piece st vars terms parity =
  st.n_karnaugh <- st.n_karnaugh + 1;
  (* A piece whose terms are all single CNF variables is itself an XOR
     row over those variables — record it (the minimised clauses below
     encode exactly that function).  Pieces with genuine degree >= 2
     monomials are not linear over CNF variables and are not recorded. *)
  (if
     List.for_all
       (function
         | Cut_aux _ -> true
         | Mono m -> ( match M.vars m with [ _ ] -> true | _ -> false))
       terms
   then
     let vars =
       List.map
         (function
           | Cut_aux v -> v
           | Mono m -> ( match M.vars m with [ x ] -> x | _ -> assert false))
         terms
     in
     note_xor st (Sat.Xor_module.make_xor ~vars ~parity));
  let vars = Array.of_list vars in
  let k = Array.length vars in
  (* each term as the bit mask of its variables' positions in [vars]; a
     term is true at minterm tm iff all its bits are set in tm *)
  let position x =
    let rec go i = if vars.(i) = x then i else go (i + 1) in
    1 lsl go 0
  in
  let masks =
    Array.of_list
      (List.map
         (function
           | Mono m -> List.fold_left (fun acc x -> acc lor position x) 0 (M.vars m)
           | Cut_aux v -> position v)
         terms)
  in
  (* key: k, then the truth table of piece + parity, whose 1s are the
     assignments violating the piece *)
  let key = Bytes.make (1 + max 1 ((1 lsl k) / 8)) '\000' in
  Bytes.set key 0 (Char.chr k);
  for tm = 0 to (1 lsl k) - 1 do
    let v = ref parity in
    for t = 0 to Array.length masks - 1 do
      if tm land masks.(t) = masks.(t) then v := not !v
    done;
    if !v then begin
      let i = 1 + (tm lsr 3) in
      Bytes.set key i (Char.chr (Char.code (Bytes.get key i) lor (1 lsl (tm land 7))))
    end
  done;
  let cover = minimised_cover ~k (Bytes.unsafe_to_string key) in
  for j = 0 to (String.length cover / 2) - 1 do
    let mask = Char.code cover.[2 * j] and value = Char.code cover.[(2 * j) + 1] in
    let lits = ref [] in
    for i = k - 1 downto 0 do
      if mask lsr i land 1 = 1 then
        lits := L.make vars.(i) ~negated:(value lsr i land 1 = 1) :: !lits
    done;
    emit st (C.of_list !lits)
  done

(* Tseitin path: replace every monomial of degree >= 2 by its auxiliary
   variable, then expand the resulting XOR clause directly. *)
let tseitin_piece st terms parity =
  st.n_tseitin <- st.n_tseitin + 1;
  let vars =
    List.map
      (fun t ->
        match t with
        | Cut_aux v -> v
        | Mono m -> (
            match M.vars m with
            | [ x ] -> x
            | _ :: _ :: _ -> monomial_aux_var st m
            | [] -> assert false (* constants are folded into the parity *)))
      terms
  in
  let x = Sat.Xor_module.make_xor ~vars ~parity in
  (* after monomial-auxiliary substitution the piece is exactly this XOR
     row over CNF variables (the aux definitions pin each aux to its
     monomial), so the row is sound to propagate natively *)
  note_xor st x;
  List.iter (emit st) (Sat.Xor_module.clauses_of_xor x)

(* Convert one piece (<= L terms). *)
let convert_piece st terms parity =
  match terms with
  | [] -> if parity then emit st (C.of_list []) (* 1 = 0: empty clause *)
  | _ ->
      let vars = piece_vars terms in
      if List.length vars <= st.config.Config.karnaugh_vars then
        karnaugh_piece st vars terms parity
      else tseitin_piece st terms parity

(* Cut a term list into pieces of at most L terms by chaining fresh
   auxiliary variables: a1 = t1 + ... + t_{L-1}, continue with a1 + tL... *)
let rec cut_and_convert st terms parity =
  let l = max 3 st.config.Config.xor_cut_length in
  let n = List.length terms in
  if n <= l then convert_piece st terms parity
  else begin
    let rec take k acc rest =
      if k = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> (List.rev acc, [])
        | t :: tl -> take (k - 1) (t :: acc) tl
    in
    let chunk, rest = take (l - 1) [] terms in
    let a = fresh_cut_var st in
    (* definition piece: a + chunk = 0 *)
    convert_piece st (Cut_aux a :: chunk) false;
    cut_and_convert st (Cut_aux a :: rest) parity
  end

let convert_polynomial st p =
  match P.classify p with
  | P.Tautology -> ()
  | P.Contradiction -> emit st (C.of_list [])
  | P.Assign (x, v) -> emit st (C.of_list [ L.make x ~negated:(not v) ])
  | P.Equiv (x, y, negated) ->
      (* x = y (+1): two binary clauses as in Section III-C *)
      if negated then begin
        emit st (C.of_list [ L.pos x; L.pos y ]);
        emit st (C.of_list [ L.neg_of x; L.neg_of y ])
      end
      else begin
        emit st (C.of_list [ L.pos x; L.neg_of y ]);
        emit st (C.of_list [ L.neg_of x; L.pos y ])
      end
  | P.All_ones _ | P.Other ->
      let parity = P.has_constant_term p in
      let terms =
        List.filter_map
          (fun m -> if M.is_one m then None else Some (Mono m))
          (P.monomials p)
      in
      cut_and_convert st terms parity

let make_state ~config ~anf_nvars =
  if config.Config.karnaugh_vars > Minimize.Quine_mccluskey.max_vars then
    invalid_arg "Anf_to_cnf: karnaugh_vars (K) above 8";
  {
    config;
    anf_nvars;
    clauses = [];
    var_of_mono = Mtbl.create 64;
    mono_of_var = Hashtbl.create 64;
    next_var = anf_nvars;
    n_monomial_aux = 0;
    n_cut_aux = 0;
    n_karnaugh = 0;
    n_tseitin = 0;
    xors = [];
  }

(* Everything [st] has encoded so far, as one conversion. *)
let conversion st =
  {
    formula = Cnf.Formula.create ~nvars:st.next_var (List.rev st.clauses);
    anf_nvars = st.anf_nvars;
    mono_of_var = st.mono_of_var;
    n_monomial_aux = st.n_monomial_aux;
    n_cut_aux = st.n_cut_aux;
    n_karnaugh = st.n_karnaugh;
    n_tseitin = st.n_tseitin;
    xors = List.rev st.xors;
  }

let convert ?(nvars = 0) ~config polys =
  let anf_nvars =
    List.fold_left (fun acc p -> max acc (P.max_var p + 1)) nvars polys
  in
  let st = make_state ~config ~anf_nvars in
  List.iter (convert_polynomial st) polys;
  conversion st

let convert_poly_clauses ~config p =
  let st = make_state ~config ~anf_nvars:(P.max_var p + 1) in
  convert_polynomial st p;
  List.rev st.clauses

(* ---------------- incremental conversion ---------------- *)

module Ptbl = Hashtbl.Make (struct
  type t = P.t

  let equal = P.equal
  let hash = P.hash
end)

(* Persistent conversion state across driver rounds: polynomials already
   encoded (keyed on the canonical polynomial itself — [P.hash]/[P.equal]
   are structural) are skipped, and the monomial-auxiliary map persists so
   a monomial reused by a later polynomial reuses its variable and
   definition clauses.  Clauses are never retracted: every polynomial ever
   encoded is a GF(2) consequence of the original system (XL, ElimLin and
   SAT facts only derive consequences), so stale clauses stay sound even
   when linear compression replaces the polynomial list wholesale. *)
type incremental = { inc_state : state; seen : unit Ptbl.t }

type delta = {
  delta_clauses : Cnf.Clause.t list;  (** clauses new in this round, in order *)
  n_encoded : int;
  n_reused : int;
}

let create_incremental ~config ~anf_nvars =
  { inc_state = make_state ~config ~anf_nvars; seen = Ptbl.create 256 }

(* New clauses are the physical prefix of the (reversed) clause list added
   since the snapshot. *)
let clauses_since stop l =
  let rec go acc l = if l == stop then acc else go (List.hd l :: acc) (List.tl l) in
  go [] l

let encode_round inc polys =
  let st = inc.inc_state in
  let before = st.clauses in
  let n_encoded = ref 0 and n_reused = ref 0 in
  List.iter
    (fun p ->
      if P.max_var p >= st.anf_nvars then
        invalid_arg
          "Anf_to_cnf.encode_round: polynomial over variables beyond the \
           declared ANF range";
      if Ptbl.mem inc.seen p then incr n_reused
      else begin
        Ptbl.replace inc.seen p ();
        convert_polynomial st p;
        incr n_encoded
      end)
    polys;
  {
    delta_clauses = clauses_since before st.clauses;
    n_encoded = !n_encoded;
    n_reused = !n_reused;
  }

(* Cumulative view of everything encoded so far, in the same shape as
   one-shot {!convert} — this is what the audit trail records per round. *)
let snapshot inc = conversion inc.inc_state
