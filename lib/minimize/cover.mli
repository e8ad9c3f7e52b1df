(** Minimum-cover selection over prime implicants.

    Solves the classical covering step of two-level minimisation: pick a
    subset of implicants covering every on-set minterm.  Essential primes
    are taken first; the remainder is solved exactly by branch-and-bound
    when the residual table is small, falling back to the greedy
    most-coverage heuristic (the same spirit as ESPRESSO's irredundant
    cover) otherwise.  Minterm sets are int-array bitsets over
    [0, 2^nvars), so [nvars] is meant to stay small (K <= 8). *)

(** [select ~nvars ~primes ~on_set] returns a sub-list of [primes] covering
    every minterm of [on_set] (each in [0, 2^nvars)): the essential primes
    first, then the residual cover.  Raises [Invalid_argument] if some
    minterm is covered by no prime. *)
val select : nvars:int -> primes:Cube.t list -> on_set:int list -> Cube.t list

(** Threshold (number of residual primes) below which the exact
    branch-and-bound is used. *)
val exact_threshold : int
