(** Linearisation: treating each monomial as an independent variable
    (Section II-B), mapping a polynomial system to a GF(2) matrix whose
    columns are the distinct monomials in graded order (higher degree
    leftmost), so that Gauss–Jordan elimination drives learnt low-degree
    facts into the trailing columns as in Table I. *)

type t

(** [build ?jobs polys] computes the column basis and the coefficient
    matrix of the system (one row per polynomial, in the given order).
    With [jobs > 1] the monomial columns are hashed and the rows built in
    parallel over the shared {!Runtime.Pool}; the basis is sorted after
    the merge, so the result is identical for every [jobs].

    [jobs] is a ceiling: systems below a fixed cutoff (about 54
    polynomials, the size at which a 2-domain split starts to beat pool
    dispatch) and hosts with a single domain stay on the inline path, so
    [jobs > 1] does not pay dispatch on builds too small to amortise
    it. *)
val build : ?jobs:int -> Anf.Poly.t list -> t * Gf2.Matrix.t

(** Whether {!build} would dispatch on the pool for this system size and
    [jobs], exposed so benches can record the chosen mode next to the
    timing. *)
val build_parallel_worthwhile : n_polys:int -> jobs:int -> unit -> bool

(** Number of monomial columns. *)
val n_columns : t -> int

(** The column basis in order. *)
val columns : t -> Anf.Monomial.t array

(** [poly_of_row t row] converts a matrix row back to a polynomial. *)
val poly_of_row : t -> Gf2.Bitvec.t -> Anf.Poly.t

(** [cells polys] is [rows * distinct-monomials], the "m'-by-n' linearised
    size" the subsampling parameter M bounds. *)
val cells : Anf.Poly.t list -> int
