(** ANF-to-CNF conversion (Section III-C).

    Every ANF variable [x] keeps its index as a CNF variable.  Determined
    variables become unit clauses and equivalences become two binary
    clauses.  Any other polynomial is first cut into pieces of at most [L]
    terms by introducing auxiliary XOR-cut variables; each piece is then
    converted either through a Karnaugh map (if it involves at most [K]
    variables — minimal clauses, no extra variables) or through a
    Tseitin-style encoding (one auxiliary CNF variable per monomial of
    degree >= 2, maintained in a bi-directional map, followed by direct XOR
    clause expansion).

    The Karnaugh path supports K <= 8 (every entry point raises
    [Invalid_argument] for a larger [karnaugh_vars]).  Each
    domain memoises the minimised cover of every (k, truth table) it has
    seen, up to 4096 entries (the table is cleared when full); the memo
    is transparent — a hit emits exactly the clauses a miss would. *)

type conversion = {
  formula : Cnf.Formula.t;
  anf_nvars : int;  (** CNF variables [0..anf_nvars-1] are the ANF variables *)
  mono_of_var : (int, Anf.Monomial.t) Hashtbl.t;
      (** auxiliary CNF variable -> the monomial it stands for *)
  n_monomial_aux : int;  (** monomial auxiliary variables introduced *)
  n_cut_aux : int;  (** XOR-cut auxiliary variables introduced *)
  n_karnaugh : int;  (** pieces converted via the Karnaugh-map path *)
  n_tseitin : int;  (** pieces converted via the Tseitin path *)
  xors : (int list * bool) list;
      (** the XOR rows underlying the linear pieces of the encoding, over
          CNF variables (monomial auxiliaries substituted), in emission
          order — what SAT stages feed to {!Sat.Solver.add_xor} when the
          gauss mode is on.  Sound alongside (not instead of) the clauses:
          every row is implied by the formula. *)
}

(** [convert ?nvars ~config polys] converts the system
    [{p = 0 | p in polys}].  [anf_nvars] is max variable + 1 over the
    system, or [nvars] if given and larger (auxiliary variables are
    allocated beyond it). *)
val convert : ?nvars:int -> config:Config.t -> Anf.Poly.t list -> conversion

(** [convert_poly_clauses ~config p] converts a single polynomial and
    returns only its clauses (auxiliary variables allocated after the
    polynomial's own); a convenience for tests and the Fig. 2
    reproduction. *)
val convert_poly_clauses : config:Config.t -> Anf.Poly.t -> Cnf.Clause.t list

(** {1 Incremental conversion}

    Persistent conversion state across driver rounds: each round encodes
    only the polynomials not seen before (keyed on the canonical
    polynomial), reusing the monomial-auxiliary variable map, and returns
    the delta clauses to feed an already-running solver.  Clauses are
    never retracted — sound because every encoded polynomial is a GF(2)
    consequence of the original system. *)

type incremental

(** Result of one {!encode_round}. *)
type delta = {
  delta_clauses : Cnf.Clause.t list;  (** clauses new in this round, in order *)
  n_encoded : int;  (** polynomials encoded this round *)
  n_reused : int;  (** polynomials skipped as already encoded *)
}

(** [create_incremental ~config ~anf_nvars] fixes the ANF variable range
    [0..anf_nvars-1] up front; auxiliary variables are allocated beyond
    it.  Polynomials in later rounds must stay within that range. *)
val create_incremental : config:Config.t -> anf_nvars:int -> incremental

(** [encode_round inc polys] encodes the not-yet-seen polynomials of
    [polys] and returns the delta.  Raises [Invalid_argument] if a
    polynomial mentions a variable at or beyond [anf_nvars]. *)
val encode_round : incremental -> Anf.Poly.t list -> delta

(** Cumulative view of everything encoded so far, in the same shape as
    one-shot {!convert}; what the audit trail records per round. *)
val snapshot : incremental -> conversion
