(** Dense matrices over GF(2) with Gauss–Jordan elimination.

    This is the workhorse behind XL and ElimLin (the role M4RI plays in the
    original Bosphorus).  A matrix keeps all its rows back to back in one
    off-heap word store, so making one is a single allocation whatever
    its size; [rref] reduces it in place to reduced row echelon form. *)

type t

(** [create ~rows ~cols] is the all-zero matrix. *)
val create : rows:int -> cols:int -> t

(** [of_rows ~cols rows] builds a matrix from existing row vectors (which are
    copied).  Every row must have length [cols]. *)
val of_rows : cols:int -> Bitvec.t list -> t

val rows : t -> int
val cols : t -> int

(** [get m i j] / [set m i j b] access entry (row [i], column [j]). *)
val get : t -> int -> int -> bool

val set : t -> int -> int -> bool -> unit

(** [set_row_bits m r ~col ids n] sets bit [col.(ids.(j))] of row [r]
    for every [j < n] — a row given as ids, placed through a column map.
    Allocates nothing.  Raises [Invalid_argument] if [r] or a mapped
    column is out of range. *)
val set_row_bits : t -> int -> col:int array -> int array -> int -> unit

(** [row m i] is a live view of the [i]-th row position (not a copy):
    writes through it change [m], and after {!swap_rows} it shows
    whichever row sits at position [i]. *)
val row : t -> int -> Bitvec.t

(** [windows m ~lo ~width out] stores in [out.(r)], for each row [r],
    bits [lo, lo + width) of row [r] packed into an int, bit [lo] as bit
    0 — one or two word reads per row whether or not the range straddles
    a word boundary.  Slots of [out] past [rows m] are left alone.
    Requires [0 <= width < Sys.int_size], [0 <= lo], [lo + width <= cols m]
    and [rows m <= Array.length out]; raises [Invalid_argument]
    otherwise. *)
val windows : t -> lo:int -> width:int -> int array -> unit

(** [copy m] is a deep copy. *)
val copy : t -> t

(** [swap_rows m i j] exchanges rows [i] and [j]. *)
val swap_rows : t -> int -> int -> unit

(** [xor_rows m ~src ~dst] adds row [src] into row [dst]. *)
val xor_rows : t -> src:int -> dst:int -> unit

(** [rref m] reduces [m] in place to reduced row echelon form (full
    Gauss–Jordan: pivots are 1 and each pivot column is zero elsewhere) and
    returns the rank.  Pivot search is leftmost-column first, so columns with
    lower index are preferred as pivots — callers order columns by descending
    monomial degree so that learnt linear facts surface in the trailing
    columns, as in Table I of the paper. *)
val rref : t -> int

(** [rref_m4rm ?k ?poll m] is {!rref} by the Method of the Four Russians
    (the algorithm M4RI is named after): pivots are found in blocks of up
    to [k] pivots (default 6), combinations of a block's [b] pivot rows
    are tabulated gray-code style, and every other row is cleared with a
    single table lookup and XOR instead of up to [b] row operations.
    Produces the same reduced row echelon form as {!rref} (RREF is
    canonical), roughly [k] times faster on large dense matrices.  A
    block spans up to [Sys.int_size - 1] columns, read once per block
    into one int window per row; pivot search works on the windows and
    visits only the rows whose window is nonzero, so sparse matrices,
    such as XL's expansions, pay for their set bits rather than for
    rows x columns.

    [poll] (default a no-op) is called once per column block — a
    cooperative cancellation point for budgeted callers
    ({!Harness.Budget.poll}).  If it raises, the elimination aborts and
    [m] is left half-reduced: discard it. *)
val rref_m4rm : ?k:int -> ?poll:(unit -> unit) -> t -> int

(** [rank m] is the GF(2) rank (computed on a copy; [m] is unchanged). *)
val rank : t -> int

(** [is_rref m] checks the structural reduced-row-echelon-form invariant:
    pivot columns strictly increase top to bottom, zero rows are at the
    bottom, and each pivot column is zero outside its pivot row.  Used by
    the audit layer's invariant checks; with the environment variable
    [BOSPHORUS_AUDIT] set, {!rref} and {!rref_m4rm} also verify their own
    output against it. *)
val is_rref : t -> bool

(** [in_row_space m v] is [true] iff [v] is a GF(2) linear combination of
    the rows of [m].  [m] must be in (reduced) row echelon form — reduce it
    with {!rref} or {!rref_m4rm} first.  Raises [Invalid_argument] if the
    vector length differs from the column count. *)
val in_row_space : t -> Bitvec.t -> bool

(** [pp] prints a 0/1 grid, one row per line. *)
val pp : Format.formatter -> t -> unit
