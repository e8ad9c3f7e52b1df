(** Prime-implicant generation by the Quine–McCluskey procedure.

    Exponential in the variable count, so limited to the small [K]-variate
    functions (K <= 8 in Bosphorus) fed to the Karnaugh-map conversion
    path.  Each tabulation level finds merge partners by lookup in a flat
    per-domain table of 2^(2 * max_vars) entries, so a level of n cubes
    costs O(n * nvars). *)

(** Largest accepted [nvars]: 8. *)
val max_vars : int

(** [prime_implicants ~nvars on_set] computes all prime implicants of the
    Boolean function whose on-set is [on_set] (a list of minterms, each in
    [0, 2^nvars)), sorted by {!Cube.compare}.  Raises [Invalid_argument]
    if [nvars] is outside [0, max_vars] or a minterm is out of range. *)
val prime_implicants : nvars:int -> int list -> Cube.t list
