(** Linearisation: treating each monomial as an independent variable
    (Section II-B), mapping a polynomial system to a GF(2) matrix whose
    columns are the distinct monomials in graded order (higher degree
    leftmost), so that Gauss–Jordan elimination drives learnt low-degree
    facts into the trailing columns as in Table I. *)

type t

(** [build_ids ids rows n] computes the column basis and the coefficient
    matrix of the first [n] rows of [rows], each the distinct monomial ids
    (in any order) of one polynomial in [ids].  The columns are the ids
    the rows use, in graded order; the matrix takes one allocation and
    every bit is set by array index, with no monomial hashed again. *)
val build_ids : Anf.Monomial.Ids.t -> int array array -> int -> t * Gf2.Matrix.t

(** [build polys] interns each monomial of [polys] once and then is
    {!build_ids}: one row per polynomial, in the given order. *)
val build : Anf.Poly.t list -> t * Gf2.Matrix.t

(** Number of monomial columns. *)
val n_columns : t -> int

(** The column basis in order. *)
val columns : t -> Anf.Monomial.t array

(** [poly_of_row t row] converts a matrix row back to a polynomial. *)
val poly_of_row : t -> Gf2.Bitvec.t -> Anf.Poly.t

type reduced = {
  n_columns : int;  (** monomial columns of the linearised system *)
  rank : int;  (** GF(2) rank *)
  rows : Anf.Poly.t list;  (** the kept nonzero reduced rows, top to bottom *)
}

(** [reduce ?poll ?keep polys] linearises [polys] ({!build}),
    reduces the matrix to reduced row echelon form with
    {!Gf2.Matrix.rref_m4rm} (passing [poll] through), and
    converts back to polynomials the nonzero rows that [keep t] accepts
    (default: all of them).  [keep] sees the column basis first, so it can
    precompute where the column groups it cares about start, and is then
    asked once per row; rows it rejects are never converted.  A raising
    [poll] aborts the whole call. *)
val reduce :
  ?poll:(unit -> unit) ->
  ?keep:(t -> Gf2.Bitvec.t -> bool) ->
  Anf.Poly.t list ->
  reduced

(** [reduce_ids ?poll ?keep ids rows n] is {!reduce} on rows given
    as in {!build_ids}. *)
val reduce_ids :
  ?poll:(unit -> unit) ->
  ?keep:(t -> Gf2.Bitvec.t -> bool) ->
  Anf.Monomial.Ids.t ->
  int array array ->
  int ->
  reduced

(** [cells polys] is [rows * distinct-monomials], the "m'-by-n' linearised
    size" the subsampling parameter M bounds. *)
val cells : Anf.Poly.t list -> int
