(** ElimLin (Section II-C): iterate (1) Gauss–Jordan elimination on the
    linearised system, (2) gather the linear equations, and (3) eliminate
    one variable per linear equation — chosen as the variable of the
    equation occurring in the fewest remaining equations — by substitution,
    until GJE produces no further linear equations.

    Every linear equation gathered along the way is implied by the original
    system and is returned as a learnt fact. *)

type report = {
  facts : Anf.Poly.t list;  (** linear facts, in discovery order *)
  rounds : int;  (** GJE rounds executed *)
  final_size : int;  (** equations left in the reduced system *)
}

(** The substitutions [x_i := by_i] of one ElimLin round, where [x_i + by_i]
    is the [i]-th linear equation after reduction by the earlier ones (so
    [by_i] mentions no earlier [x_j]). *)
module Substitutions : sig
  type t

  val create : unit -> t

  (** [record t x equation] appends the substitution of [x] defined by the
      linear [equation] ([x + by = 0]). *)
  val record : t -> int -> Anf.Poly.t -> unit

  (** [reduce t l] is the linear [l] with every recorded substitution
      applied in order, computed by adding in recorded equations. *)
  val reduce : t -> Anf.Poly.t -> Anf.Poly.t
end

(** [run ~config ~rng ?budget polys] applies ElimLin to a random subsample
    of linearised size about [2^M] (like XL, Bosphorus runs ElimLin to
    learn, not to solve).  A tripped [budget] (polled every substitution
    and checked every GJE round) stops the pass gracefully: the facts
    found so far — each already implied by the input — are returned, and
    the driver reports the degradation. *)
val run :
  config:Config.t ->
  rng:Random.State.t ->
  ?budget:Harness.Budget.t ->
  Anf.Poly.t list ->
  report

(** [run_full ?jobs polys] applies ElimLin to the entire system (used by
    tests and the worked-example reproduction).  [jobs] (default 1) is the
    domain-pool width for the inner GJE; the result is identical for every
    value. *)
val run_full : ?jobs:int -> Anf.Poly.t list -> report
