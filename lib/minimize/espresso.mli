(** Two-level logic minimisation: the role ESPRESSO plays in the original
    Bosphorus (Karnaugh-map simplification, Section III-E).

    [minimise ~nvars ~on_set] returns a small sum-of-products cover of the
    function with the given on-set: Quine–McCluskey prime implicants
    followed by essential/branch-and-bound cover selection, which is exact
    at the sizes Bosphorus uses (K <= 8 variables). *)

val minimise : nvars:int -> on_set:int list -> Cube.t list

(** [minimise_anf ~nvars ~parity masks n cover] is {!minimise} of the
    on-set of [parity + t_0 + ... + t_{n-1}], where term [t_i] is the
    product of the variables whose bits are set in [masks.(i)] (each below
    [2^nvars]): it writes the cubes as [mask lsl 8 lor value] into [cover]
    (room for 256 is always enough), in {!minimise}'s order, and returns
    how many.  Allocates nothing once the calling domain's scratch is
    warm.  Raises [Invalid_argument] if [nvars] is outside [0, 8] or a
    mask is out of range. *)
val minimise_anf : nvars:int -> parity:bool -> int array -> int -> int array -> int

(** [verify ~nvars ~on_set cubes] checks that [cubes] cover exactly the
    minterms of [on_set] — every on-set minterm is covered and no off-set
    minterm is.  Used by tests and as an internal sanity assertion. *)
val verify : nvars:int -> on_set:int list -> Cube.t list -> bool
