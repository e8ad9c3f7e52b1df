(** Fixed-size OCaml 5 domain pool with a shared work queue and futures.

    The pool is the repository's single parallel-execution substrate: the
    GF(2) elimination panel update, the portfolio's pinned seats and the
    bench driver's multi-instance batching all run through it.  Design constraints, in order:

    - {b Determinism.}  Every splitting helper ([chunk_ranges],
      [map_list], [parallel_for]) partitions its
      input into contiguous chunks whose boundaries depend only on the
      pool's [jobs] value, and [run] joins futures in submission order.
      Tasks that write disjoint state therefore produce results independent
      of worker scheduling: same [jobs], same output — and for tasks whose
      output is scheduling-independent (e.g. RREF), any [jobs] gives the
      same output.
    - {b Graceful sequential fallback.}  A pool with [jobs <= 1] spawns no
      domains and runs everything inline on the caller; all combinators
      behave exactly like their [List]/[Array] counterparts.
    - {b Reuse.}  [get ~jobs] hands out views onto one process-global
      worker set (grown on demand, reaped at exit), so hot kernels can
      request parallelism per call without paying a domain spawn.
    - {b Callers own granularity.}  A parallel kernel compares its work
      size against a fixed cutoff ([Gf2.Matrix.m4rm_parallel_worthwhile])
      before calling {!get}, so a call too small to amortise dispatch
      spawns no domain.

    The caller participates: while awaiting its futures it pops and runs
    queued tasks, so nested [run] calls from inside tasks cannot deadlock
    and a [jobs]-way pool reaches [jobs]-way parallelism with only
    [jobs - 1] spawned domains. *)

type t

(** Cancellation tokens: a single atomic flag shared between the party
    that decides to abort (e.g. a tripped {!Harness.Budget}) and the tasks
    that should stop.  Setting the token never interrupts a running task
    pre-emptively — tasks are expected to poll cooperatively — but it does
    prevent queued-not-yet-started tasks from running at all. *)
module Cancel : sig
  type t

  val create : unit -> t

  (** [set t] requests cancellation; idempotent, safe from any domain. *)
  val set : t -> unit

  val is_set : t -> bool
end

(** Raised inside a task slot whose cancellation token was set before the
    task started (and by {!run} when such a slot is the first failure). *)
exception Cancelled

(** [get ~jobs] is a view with parallel width [jobs] onto the shared
    process-global worker set, growing it if it has fewer than [jobs - 1]
    workers.  The global set is shut down via [at_exit].  [jobs <= 1]
    returns the sequential pool. *)
val get : jobs:int -> t

(** The parallel width this pool was requested with (>= 1).  All chunking
    combinators cut their input into at most this many pieces. *)
val jobs : t -> int

(** [run ?cancel t thunks] executes the thunks (on workers plus the
    calling domain) and returns their results in submission order.  All
    thunks are run to completion even when some fail; the first failure in
    submission order is then re-raised.  With a sequential pool and no
    token this is [List.map (fun f -> f ()) thunks].  With [cancel],
    thunks whose token is set before they start fail with {!Cancelled}
    (in-flight thunks are never interrupted: they must poll the token, or
    a {!Harness.Budget}, themselves). *)
val run : ?cancel:Cancel.t -> t -> (unit -> 'a) list -> 'a list

(** [run_pinned ?cancel thunks] runs long-lived tasks on {e dedicated}
    domains beside the work queue: the calling domain runs the first
    thunk, every other thunk gets a domain from a separate process-global
    long-task worker set (grown so that all currently pinned tasks have
    one, reaped at exit).  Unlike {!run}, pinned tasks never share the
    kernel work queue — a portfolio solver that occupies its domain for
    seconds cannot starve queued m4rm/xl chunks — and the joining caller
    never steals another caller's long task.  Results come back in
    submission order, every future joined, [Error] for failed or
    token-skipped slots (in-flight tasks must poll [cancel] themselves,
    exactly as with {!run}). *)
val run_pinned : ?cancel:Cancel.t -> (unit -> 'a) list -> ('a, exn) result list

(** [map_list t f xs] maps [f] over [xs] with chunk-level parallelism,
    preserving order: equal to [List.map f xs] whenever [f] is pure. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [parallel_for t ~lo ~hi f] calls [f lo' hi'] on contiguous sub-ranges
    partitioning [\[lo, hi)], in parallel.  [f] must write only state owned
    by its range. *)
val parallel_for : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit

(** [chunk_ranges ~chunks ~lo ~hi] is the deterministic partition of
    [\[lo, hi)] into at most [chunks] contiguous, near-equal, in-order
    ranges [(lo', hi')].  Exposed for tests. *)
val chunk_ranges : chunks:int -> lo:int -> hi:int -> (int * int) list

(** The most domains the OCaml runtime runs at once (128, the main domain
    included); past it [Domain.spawn] fails. *)
val domain_limit : int

(** The widest pool or portfolio the command-line tools accept (64).
    With a kernel pool and a pinned set both this wide, their
    [2 * (max_width - 1)] spawned domains plus the main domain stay below
    the OCaml runtime's limit of 128 domains, past which [Domain.spawn]
    fails. *)
val max_width : int

(** Default parallel width: the [BOSPHORUS_JOBS] environment variable if
    set to a positive integer, else [Domain.recommended_domain_count ()],
    capped at {!max_width}. *)
val default_jobs : unit -> int
