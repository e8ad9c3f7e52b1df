(** eXtended Linearization (Section II-B).

    XL multiplies each equation by all monomials up to degree [D], then
    applies Gauss–Jordan elimination to the linearised expanded system.
    Bosphorus uses XL not to solve but to learn facts: the subsampling
    parameter M bounds the linearised size of the subsystem picked, the
    expansion stops near 2^(M + delta-M) cells, and only the learnt-fact
    shapes are retained — linear equations and all-ones monomial equations
    (and the contradiction 1, if derived). *)

type report = {
  facts : Anf.Poly.t list;  (** retained learnt facts *)
  sampled : int;  (** equations in the subsample *)
  expanded_rows : int;  (** rows after expansion *)
  columns : int;  (** monomial columns after expansion *)
  rank : int;  (** GF(2) rank of the expanded system *)
}

(** [run ~config ~rng ?budget polys] performs one subsampled XL pass.

    Under a {!Harness.Budget} the expansion keeps the budget's
    monomial/clause gauge at (caller's gauge + this expansion's distinct
    columns) and polls cooperatively every pushed product.  A trip stops
    the pass without raising: a memory trip still reduces the (ceiling-
    bounded) partial expansion and returns its facts — partial but sound,
    every row is a GF(2) consequence — while a wall-clock or injected trip
    skips the reduction and returns no facts for this pass. *)
val run :
  config:Config.t ->
  rng:Random.State.t ->
  ?budget:Harness.Budget.t ->
  Anf.Poly.t list ->
  report

(** [multipliers ~vars ~degree] lists all monomials of degree 1..[degree]
    over the given variables — the expansion multipliers (the original
    equation itself covers the degree-0 multiplier). *)
val multipliers : vars:int list -> degree:int -> Anf.Monomial.t list

(** [retain_facts polys] filters to the fact shapes Bosphorus keeps. *)
val retain_facts : Anf.Poly.t list -> Anf.Poly.t list

(** [fact_shaped lin row] is the row filter {!run} hands to
    {!Linearize.reduce}: [true] iff reduced row [row] of the linearised
    system [lin] is linear (its first set bit is at or past the first
    column of degree <= 1) or is [m + 1] (two set bits, the last the
    constant column).  It accepts every row {!retain_facts} keeps, so
    [retain_facts] over the accepted rows gives the facts of all rows. *)
val fact_shaped : Linearize.t -> Gf2.Bitvec.t -> bool

(** [subsample ~rng ~cell_budget polys] greedily takes shuffled
    polynomials while the linearised size (rows x distinct monomials)
    stays within [cell_budget] (always at least one) — the uniform
    subsampling both XL and ElimLin run on. *)
val subsample :
  rng:Random.State.t -> cell_budget:int -> Anf.Poly.t list -> Anf.Poly.t list
