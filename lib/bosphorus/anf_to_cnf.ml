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

(* A piece is an XOR of terms equated to [parity]; a term is a monomial
   over CNF variables: a monomial of the polynomial, or the one-variable
   monomial of an auxiliary variable introduced by XOR cutting. *)
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
   encoding: (x_i | ~a) for each i and (~x1 | ... | ~xk | a); a lies
   above every ANF variable, so both are ascending as written. *)
let monomial_aux_var st m =
  match Mtbl.find_opt st.var_of_mono m with
  | Some v -> v
  | None ->
      let v = st.next_var in
      st.next_var <- v + 1;
      st.n_monomial_aux <- st.n_monomial_aux + 1;
      Mtbl.replace st.var_of_mono m v;
      Hashtbl.replace st.mono_of_var v m;
      let term = M.view m in
      Array.iter (fun x -> emit st (C.of_sorted_array [| L.pos x; L.neg_of v |])) term;
      let d = Array.length term in
      let lits = Array.make (d + 1) (L.pos v) in
      for i = 0 to d - 1 do
        lits.(i) <- L.neg_of term.(i)
      done;
      emit st (C.of_sorted_array lits);
      v

(* Minimised Karnaugh maps, one table per domain (a daemon worker, or a CLI
   or bench process), keyed on the piece's variable count k, its parity
   and its terms as ascending bit masks over the piece's variables.  As
   the algebraic normal form of a function is unique and a piece's terms
   are distinct, the key names exactly one truth table, and a truth table
   one key.  A value packs the cover as 2 bytes (mask, value) per cube,
   in Espresso's order, so the table holds no pointers for the GC to
   scan.  Espresso is a pure function of the on-set: a hit emits exactly
   the clauses a miss would.  [masks] and [cover] are the kernel's
   scratch. *)
let memo_cap = 4096

type karnaugh = {
  memo : (string, string) Hashtbl.t;
  masks : int array;  (** a piece's term masks: distinct, so at most 255 *)
  cover : int array;  (** {!Minimize.Espresso.minimise_anf}'s output *)
}

let karnaugh =
  Domain.DLS.new_key (fun () ->
      { memo = Hashtbl.create 256; masks = Array.make 256 0; cover = Array.make 256 0 })

let m_cover_misses = Obs.Metrics.counter "anf_to_cnf.cover_misses"

(* the mask of [term]'s variables' positions in [vars]; both ascending,
   [term] a monomial's {!M.view} *)
let rec term_mask (vars : int array) (term : int array) i j acc =
  if j >= Array.length term then acc
  else if vars.(i) = Array.unsafe_get term j then
    term_mask vars term (i + 1) (j + 1) (acc lor (1 lsl i))
  else term_mask vars term (i + 1) j acc

(* insertion sort of [a.(0 .. n-1)] *)
let rec sort_masks (a : int array) n i =
  if i < n then begin
    insert_mask a (Array.unsafe_get a i) i;
    sort_masks a n (i + 1)
  end

and insert_mask a x j =
  if j > 0 && Array.unsafe_get a (j - 1) > x then begin
    Array.unsafe_set a j (Array.unsafe_get a (j - 1));
    insert_mask a x (j - 1)
  end
  else Array.unsafe_set a j x

(* the cover of a piece whose sorted masks are [kn.masks.(0 .. n-1)] *)
let minimised_cover kn ~k ~parity n =
  let key = Bytes.create (2 + n) in
  Bytes.unsafe_set key 0 (Char.unsafe_chr k);
  Bytes.unsafe_set key 1 (if parity then '\001' else '\000');
  for t = 0 to n - 1 do
    Bytes.unsafe_set key (2 + t) (Char.unsafe_chr kn.masks.(t))
  done;
  let key = Bytes.unsafe_to_string key in
  match Hashtbl.find_opt kn.memo key with
  | Some cover -> cover
  | None ->
      let c = Minimize.Espresso.minimise_anf ~nvars:k ~parity kn.masks n kn.cover in
      let cover = Bytes.create (2 * c) in
      for j = 0 to c - 1 do
        Bytes.unsafe_set cover (2 * j) (Char.unsafe_chr (kn.cover.(j) lsr 8));
        Bytes.unsafe_set cover ((2 * j) + 1) (Char.unsafe_chr (kn.cover.(j) land 0xFF))
      done;
      let cover = Bytes.unsafe_to_string cover in
      Obs.Metrics.incr m_cover_misses;
      if Hashtbl.length kn.memo >= memo_cap then Hashtbl.reset kn.memo;
      Hashtbl.replace kn.memo key cover;
      cover

(* the literals of the clause that negates cube (mask, value) over [vars],
   ascending: [lits] has one slot per set bit of [mask] *)
let rec fill_lits (vars : int array) mask value (lits : L.t array) i j =
  if j < Array.length lits then
    if (mask lsr i) land 1 = 1 then begin
      Array.unsafe_set lits j (L.make vars.(i) ~negated:((value lsr i) land 1 = 1));
      fill_lits vars mask value lits (i + 1) (j + 1)
    end
    else fill_lits vars mask value lits (i + 1) j

(* Karnaugh-map path: minimise the on-set of the piece (the forbidden
   assignments) and negate each cube into a clause.  [vars] is the
   piece's ascending support, at most
   {!Minimize.Quine_mccluskey.max_vars} long. *)
let karnaugh_piece st vars terms parity =
  st.n_karnaugh <- st.n_karnaugh + 1;
  (* A piece whose terms are all single CNF variables is itself an XOR
     row over those variables — record it (the minimised clauses below
     encode exactly that function).  Pieces with genuine degree >= 2
     monomials are not linear over CNF variables and are not recorded. *)
  if Array.for_all (fun t -> M.degree t = 1) terms then
    note_xor st
      (Sat.Xor_module.make_xor
         ~vars:(Array.to_list (Array.map (fun t -> (M.view t).(0)) terms))
         ~parity);
  let kn = Domain.DLS.get karnaugh in
  let n = Array.length terms in
  for t = 0 to n - 1 do
    kn.masks.(t) <- term_mask vars (M.view terms.(t)) 0 0 0
  done;
  sort_masks kn.masks n 1;
  let cover = minimised_cover kn ~k:(Array.length vars) ~parity n in
  for j = 0 to (String.length cover / 2) - 1 do
    let mask = Char.code cover.[2 * j] and value = Char.code cover.[(2 * j) + 1] in
    let lits = Array.make (Minimize.Minterm_set.popcount mask) (L.pos 0) in
    fill_lits vars mask value lits 0 0;
    emit st (C.of_sorted_array lits)
  done

(* Tseitin path: replace every monomial of degree >= 2 by its auxiliary
   variable, then expand the resulting XOR clause directly. *)
let tseitin_piece st terms parity =
  st.n_tseitin <- st.n_tseitin + 1;
  (* left to right: auxiliary variables are numbered in term order *)
  let vars =
    Array.to_list
      (Array.map (fun t -> if M.degree t = 1 then (M.view t).(0) else monomial_aux_var st t) terms)
  in
  let x = Sat.Xor_module.make_xor ~vars ~parity in
  (* after monomial-auxiliary substitution the piece is exactly this XOR
     row over CNF variables (the aux definitions pin each aux to its
     monomial), so the row is sound to propagate natively *)
  note_xor st x;
  List.iter (emit st) (Sat.Xor_module.clauses_of_xor x)

(* Convert one piece (<= L terms). *)
let convert_piece st terms parity =
  if Array.length terms = 0 then begin
    if parity then emit st (C.of_list []) (* 1 = 0: empty clause *)
  end
  else
    let vars = M.support terms in
    if Array.length vars <= st.config.Config.karnaugh_vars then
      karnaugh_piece st vars terms parity
    else tseitin_piece st terms parity

(* Cut the terms [carry; terms.(i ..)] (no [carry] when it is -1) into
   pieces of at most L terms by chaining fresh auxiliary variables:
   a1 = t1 + ... + t_{L-1}, continue with a1 + tL... *)
let rec cut_and_convert st carry terms i parity =
  let l = max 3 st.config.Config.xor_cut_length in
  let c = if carry < 0 then 0 else 1 in
  let n = c + Array.length terms - i in
  if n <= l then begin
    let piece = Array.make n M.one in
    if c = 1 then piece.(0) <- M.var carry;
    Array.blit terms i piece c (n - c);
    convert_piece st piece parity
  end
  else begin
    let a = fresh_cut_var st in
    (* definition piece: a + chunk = 0, the chunk the first L-1 terms *)
    let piece = Array.make l (M.var a) in
    if c = 1 then piece.(1) <- M.var carry;
    Array.blit terms i piece (1 + c) (l - 1 - c);
    convert_piece st piece false;
    cut_and_convert st a terms (i + l - 1 - c) parity
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
      (* the constant monomial, if any, sorts last *)
      let parity = P.has_constant_term p in
      let terms = Array.init (P.n_terms p - Bool.to_int parity) (P.term p) in
      cut_and_convert st (-1) terms 0 parity

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

let anf_nvars inc = inc.inc_state.anf_nvars
let cnf_nvars inc = inc.inc_state.next_var
let mono_of_var inc = inc.inc_state.mono_of_var
let xors inc = List.rev inc.inc_state.xors
let cover_misses () = Obs.Metrics.counter_value m_cover_misses

(* The whole cumulative formula, rebuilt on each call: only the audit
   trail reads it. *)
let formula inc = (conversion inc.inc_state).formula
