(** Unified resource budgets with cooperative cancellation.

    The paper bounds every technique by replicable effort caps — CDCL by a
    conflict budget, the XL/ElimLin/SAT loop by a fixed point — but a
    hostile instance can still stall a single stage (XL monomial expansion,
    one SAT round) indefinitely.  A {!t} combines the three global ceilings
    the driver needs:

    - a {b wall-clock deadline} ([timeout_s], absolute once started);
    - a {b memory ceiling} expressed as a monomial/clause count — the
      dominant allocator in every layer is proportional to that count, and
      it is cheap to track exactly, unlike process RSS;
    - a {b conflict ceiling} over the {e cumulative} CDCL conflicts of all
      SAT rounds (per-round budgets are the solver's own
      [?conflict_budget]).

    Checking is cooperative and amortized: hot loops call {!poll} every
    work unit, which is an increment and one atomic load; only every
    [poll_every]-th poll runs the full (clock-reading) check.  A tripped
    budget records a {!trip} (first trip wins, atomically), sets its
    {!Runtime.Pool.Cancel} token so pinned tasks not yet started are
    skipped and sibling domains notice on their next poll, and raises
    {!Tripped}.
    Layers that can degrade gracefully catch {!Tripped} and return the
    sound partial results they already hold.

    {b Fault injection.}  [inject_trip_after n] arms a deterministic trip
    on the [n]-th subsequent full check (optionally only in a named
    layer), letting tests trip any layer at any point.  Like the audit
    invariants ([BOSPHORUS_AUDIT]), the hook is env-gated: it is inert
    unless [BOSPHORUS_FAULT_INJECT] is set to [1]/[true]/[yes]. *)

type kind =
  | Time  (** the wall-clock deadline passed *)
  | Memory  (** the monomial/clause gauge exceeded the ceiling *)
  | Conflicts  (** the cumulative CDCL conflict ceiling was reached *)
  | Injected  (** an armed {!inject_trip_after} fault fired *)
  | Cancelled  (** an external party called {!cancel_now} (job cancel) *)

val kind_name : kind -> string

(** What tripped, in which layer (["xl"], ["elimlin"], ["sat"],
    ["driver"], ...), at which driver iteration. *)
type trip = { kind : kind; layer : string; at_iteration : int; detail : string }

exception Tripped of trip

type t

(** [create ()] with no ceiling never trips on its own (but still honours
    fault injection and still counts work).  [poll_every] (default 256)
    sets the amortization window of {!poll}. *)
val create :
  ?timeout_s:float ->
  ?max_memory_monomials:int ->
  ?max_total_conflicts:int ->
  ?poll_every:int ->
  unit ->
  t

(** A budget with no ceilings, for callers that need a [t] but no bounds. *)
val unlimited : unit -> t

(** [true] iff at least one ceiling was configured. *)
val is_limited : t -> bool

(** The token shared with {!Runtime.Pool}: set exactly when the budget
    has tripped. *)
val cancel_token : t -> Runtime.Pool.Cancel.t

val cancelled : t -> bool

(** The first trip, if any. *)
val tripped : t -> trip option

(** Tag subsequent trips with the driver-loop iteration (for reports). *)
val set_iteration : t -> int -> unit

(** [cancel_now t ~layer ~detail] trips the budget from outside the
    computation (kind {!Cancelled}): the trip is recorded, the
    {!Runtime.Pool.Cancel} token is set, and every cooperative poll in
    the running work raises from then on.  Never raises itself — the
    caller (a service daemon cancelling a job, a signal handler) is not
    the party doing the work.  Idempotent after any first trip.  This is
    how a long-lived server revokes a request it already dispatched. *)
val cancel_now : t -> layer:string -> detail:string -> unit

(** [check t ~layer] runs a full check now: raises {!Tripped} if the
    budget already tripped or any ceiling is exceeded.  Safe from any
    domain. *)
val check : t -> layer:string -> unit

(** [poll t ~layer] is the amortized {!check}: a counter increment plus
    one atomic load per call, with the full check every [poll_every]
    calls.  An already-recorded trip (e.g. from a sibling domain) raises
    immediately, without waiting for the window — the counter can delay
    {e detection} of a ceiling by at most [poll_every - 1] work units, but
    it can never skip past a recorded trip. *)
val poll : t -> layer:string -> unit

(** Non-raising full check, for foreign callbacks (the SAT solver's
    [?interrupt]): records any trip and returns [true] iff tripped. *)
val poll_quiet : t -> layer:string -> bool

(** Full checks executed so far (amortization observability, tests). *)
val full_checks : t -> int

(** [set_cells t n] sets the monomial/clause gauge (no check; pair with
    {!poll}).  The peak is retained for {!report}. *)
val set_cells : t -> int -> unit

val add_cells : t -> int -> unit
val cells : t -> int

(** [charge_conflicts t ~layer n] adds [n] {e solver-reported} conflicts
    to the cumulative account and runs a full check. *)
val charge_conflicts : t -> layer:string -> int -> unit

val conflicts_used : t -> int

(** Conflicts left under the ceiling ([None] when unlimited); the driver
    clips each round's solver budget to this. *)
val remaining_conflicts : t -> int option

(** Seconds left until the deadline ([None] when unlimited), clipped
    below at 0. *)
val remaining_time_s : t -> float option

(** [loop_timeout_s t] is the share of a [t]-second wall budget a driver
    run gives its learning loop: [t] minus a finalization reserve of 25%,
    capped at 1 s.  After a trip the run still folds in its last partial
    fact batch and emits the processed CNF; the reserve lets the whole
    call respect [t], not just the loop. *)
val loop_timeout_s : float -> float

(** {2 Fault injection (env-gated)} *)

(** [inject_trip_after ?layer n] arms a trip on the [n]-th full check
    from now ([n = 0]: the very next one), counting only checks whose
    layer matches [layer] when given.  No-op unless [BOSPHORUS_FAULT_INJECT]
    is set; only one injection is armed at a time (re-arming replaces). *)
val inject_trip_after : ?layer:string -> int -> unit

(** Disarm any pending injection. *)
val inject_clear : unit -> unit

(** {2 Reporting} *)

(** Structured end-of-run report, surfaced by the driver ([Degraded]
    outcomes), the CLI ([--budget-report]) and the bench JSON. *)
type report = {
  trip : trip option;  (** [None]: the run finished within budget *)
  wall_s : float;  (** elapsed wall clock since {!create} *)
  conflicts_used : int;
  cells_peak : int;  (** high-water mark of the monomial/clause gauge *)
  polls : int;  (** full checks executed *)
}

val report : t -> report
val pp_report : Format.formatter -> report -> unit

(** {2 Limits — first-class ceiling triples}

    A {!limits} value is the plain-data form of the three ceilings a
    {!t} enforces, so policy code (the service daemon's fair-share
    scheduler) can clamp and subdivide ceilings {e before} the budget
    object exists.  [None] is unlimited, field-wise. *)

type limits = {
  timeout_s : float option;
  max_memory_monomials : int option;
  max_total_conflicts : int option;
}

val no_limits : limits

(** [true] iff at least one field is limited. *)
val limits_limited : limits -> bool

(** [clamp_limits ~ceiling l] is field-wise [min l ceiling]: a request
    may only tighten the ceiling it is given, never escape it.  An
    unlimited request field inherits the ceiling's. *)
val clamp_limits : ceiling:limits -> limits -> limits

(** [slice_limits ~share l] divides each limited field by [share]
    (>= 1): the fair-share slice handed to one of [share] concurrent
    jobs of the same tenant.  Integer fields round up so a slice is
    never zero; time slices keep a 10ms floor. *)
val slice_limits : share:int -> limits -> limits

(** [of_limits ?poll_every l] is {!create} with the triple unpacked. *)
val of_limits : ?poll_every:int -> limits -> t

(** Flat numeric view (JSON emitters): [limit_timeout_s],
    [limit_memory_monomials], [limit_total_conflicts]; unlimited fields
    are omitted. *)
val limits_numeric_fields : limits -> (string * float) list

(** Flat key/value view of a report (JSON emitters, bench extras).  Keys:
    [tripped] (0/1), [trip_kind], [trip_layer], [trip_iteration],
    [budget_wall_s], [conflicts_used], [cells_peak], [budget_polls];
    string-valued fields are omitted from the numeric list. *)
val report_numeric_fields : report -> (string * float) list
