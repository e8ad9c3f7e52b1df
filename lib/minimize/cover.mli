(** Minimum-cover selection over prime implicants.

    Solves the classical covering step of two-level minimisation: pick a
    subset of implicants covering every on-set minterm.  Essential primes
    are taken first; the remainder is solved exactly by branch-and-bound
    when the residual table is small, falling back to the greedy
    most-coverage heuristic (the same spirit as ESPRESSO's irredundant
    cover) otherwise.  Minterm sets are 256-bit {!Minterm_set}s in
    per-domain scratch, so [nvars] is at most 8. *)

(** [select ~nvars on primes n cover] picks, from the primes
    [primes.(0 .. n-1)] (packed [mask lsl 8 lor value], as
    {!Quine_mccluskey.primes_into} writes them) of the on-set at offset 0
    of [on], primes covering every on-set minterm: the essential primes
    first, then the residual cover.  It writes them, packed, into [cover]
    and returns how many.  The essential primes come in the order of the
    hash-table fold of the original list-based selection (by
    [Hashtbl.hash] bucket of their index, descending, then by the first
    minterm each alone covers), the residual cover deepest choice first,
    so the result is that selection's, cube for cube.  Every prime must be
    an implicant of the on-set.  Allocates nothing once the calling
    domain's scratch holds [n] primes.  Raises [Invalid_argument] if
    some minterm is covered by no prime. *)
val select : nvars:int -> int array -> int array -> int -> int array -> int

(** Threshold (number of residual primes) below which the exact
    branch-and-bound is used. *)
val exact_threshold : int
