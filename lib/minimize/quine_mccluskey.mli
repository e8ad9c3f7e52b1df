(** Prime-implicant generation for the Karnaugh-map conversion path (the
    Quine–McCluskey step of two-level minimisation).

    Limited to the small [K]-variate functions (K <= 8 in Bosphorus) fed
    to the Karnaugh-map conversion, whose on-sets fit a 256-bit
    {!Minterm_set}.  The primes come from a dynamic programme over the
    2^nvars fixed-variable masks M, each holding imp(M), the minterms m
    whose cube (M, m land M) is an implicant: imp(all) is the on-set,
    imp(M - b) = imp(M) and flip_b(imp(M)), and the primes of M are imp(M)
    minus every imp(M - b).  The tables live in per-domain scratch. *)

(** Largest accepted [nvars]: 8. *)
val max_vars : int

(** [prime_implicants ~nvars on_set] computes all prime implicants of the
    Boolean function whose on-set is [on_set] (a list of minterms, each in
    [0, 2^nvars)), sorted by {!Cube.compare}.  Raises [Invalid_argument]
    if [nvars] is outside [0, max_vars] or a minterm is out of range. *)
val prime_implicants : nvars:int -> int list -> Cube.t list

(** Upper bound on the primes of a function of [max_vars] variables:
    3^8, the number of cubes. *)
val max_primes : int

(** [primes_into ~nvars on primes] is the kernel behind
    {!prime_implicants}: the on-set is the {!Minterm_set} at offset 0 of
    [on] (members below [2^nvars]); it writes the primes as
    [mask lsl 8 lor value] into [primes] (room for {!max_primes} is
    always enough), in {!Cube.compare} order, and returns how many.
    Allocates nothing once the calling domain's scratch exists.  Raises
    [Invalid_argument] if [nvars] is outside [0, max_vars]. *)
val primes_into : nvars:int -> int array -> int array -> int
