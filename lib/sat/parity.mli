(** Incremental Gauss-Jordan parity propagation inside CDCL.

    A [Parity.t] holds the recovered/declared XOR constraints of a solver
    as rows of a Bigarray-backed bitmatrix: row [r] asserts that the XOR
    of its set columns (solver variables) equals [row_rhs r].  Two
    complementary mechanisms keep the rows propagating during search:

    - {b In-search watching.}  Each row with at least two unassigned
      columns watches two of them, exactly like clause literals.  When a
      watched variable is assigned the solver drives
      {!scan_begin}/{!scan_step}; a row whose watch cannot be relocated is
      either unit (the remaining unassigned column is implied, with the
      implied value returned through {!implied_var}/{!implied_val}) or
      fully assigned (its parity is checked, conflicting rows are reported
      through {!event_row}).  The scan is allocation-free and
      backtrack-safe: watches only ever move to unassigned columns, so
      unwinding the trail needs no bookkeeping here.

    - {b Level-0 assimilation.}  {!gauss} substitutes the root-level
      assignments into every row and re-reduces the matrix to reduced row
      echelon form.  Rows that become empty with odd parity prove
      unsatisfiability; rows reduced to a single column yield implied unit
      literals ({!n_units}/{!unit_lit}); everything else is re-watched on
      fresh unassigned columns.  The solver calls this at solve entry and
      at restart boundaries whenever new root units (or new rows) have
      appeared since the last pass — the incremental Gauss-Jordan of
      Laitinen et al.'s complete parity reasoning, run at the points where
      it is cheap.

    The matrix, right-hand sides, liveness flags and watch positions are
    all off-heap ([Bigarray], kind [int]) in keeping with the solver's
    allocation discipline; watch lists are flat {!Ivec}s. *)

type t

type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [create ~cols ()] is an empty row set over variables [0..cols-1]. *)
val create : cols:int -> unit -> t

(** Widen the column range to [0..cols-1] (no-op if already that wide). *)
val ensure_cols : t -> int -> unit

(** Live parity rows (the engine is inert at 0). *)
val n_live : t -> int

(** [true] when rows were added since the last {!gauss}. *)
val dirty : t -> bool

(** [add_row t ~vars ~parity] adds the constraint [(+) vars = parity].
    [vars] must be distinct, unassigned and within the column range; at
    least two are required (the solver folds shorter constraints into
    units/conflicts itself).  Call at decision level 0. *)
val add_row : t -> vars:int list -> parity:bool -> unit

(** [gauss t ~assigns] substitutes the current (level-0) assignments into
    every live row and reduces the matrix to RREF, rebuilding the watch
    lists.  Returns [false] iff the rows are inconsistent with the
    assignment (an empty row with odd parity — UNSAT).  Singleton rows are
    retired into the unit queue read by {!n_units}/{!unit_lit}.
    [assigns] uses the solver's codes (0 true, 1 false, 2 unassigned). *)
val gauss : t -> assigns:iarr -> bool

(** Implied unit literals found by the last {!gauss}, as packed literals
    ([2*var + sign], sign 0 positive). *)
val n_units : t -> int

val unit_lit : t -> int -> int

(** {2 In-search scan protocol}

    After variable [v] is assigned, the solver runs
    [scan_begin t ~v] then calls {!scan_step} until it returns {!ev_done}.
    {!ev_unit} reports an implied literal (row {!event_row}, variable
    {!implied_var}, value {!implied_val}); the solver enqueues it (with a
    reason clause built from the row) and resumes stepping.
    {!ev_conflict} reports a falsified row in {!event_row} and ends the
    scan. *)

val ev_done : int

val ev_unit : int
val ev_conflict : int
val scan_begin : t -> v:int -> unit
val scan_step : t -> assigns:iarr -> int
val event_row : t -> int
val implied_var : t -> int
val implied_val : t -> bool

(** {2 Row access (reason-clause construction, tests)} *)

(** Parity (right-hand side) of row [r]. *)
val row_rhs : t -> int -> bool

(** [row_next_col t r ~from] is the smallest set column of row [r] that is
    [>= from], or [-1]. *)
val row_next_col : t -> int -> from:int -> int

(** Deep copy sharing no mutable state (portfolio cloning). *)
val copy : t -> t

(** Structural invariant check: every live row with two or more columns
    is watched on two distinct set columns and registered on both watch
    lists, and every watch-list entry points back at a live row watching
    that variable.  Returns one description per violation. *)
val invariant_violations : t -> string list
