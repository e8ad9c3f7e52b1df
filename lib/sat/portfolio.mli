(** Racing SAT portfolio across domains with lock-free clause sharing.

    A portfolio runs K diversified configurations of the CDCL core on one
    immutable snapshot of the problem: worker 0 runs the caller's solver
    as-is (the pristine template), every other worker runs a {!Solver.clone}
    with a different profile ({!Profiles}) jittered in restart policy,
    VSIDS decay and saved phases.  The first worker to decide the instance
    wins; the others observe a shared {!Runtime.Pool.Cancel} token at their
    next interrupt poll (every 128 conflicts) and stop.

    Workers cooperate through a lock-free {!Exchange}: each exports its
    newly learnt units and binaries (optionally small ternaries, under an
    LBD cap) into its own single-writer lane, and imports the other lanes'
    clauses only at restart boundaries — the inner propagate/analyze loop
    never touches shared state and stays allocation-free.  With sharing
    off the race degenerates to independent solvers and worker 0's
    trajectory is bit-identical to a lone {!Solver.solve}.

    Soundness: every exchanged clause was learnt by a sound CDCL worker
    over the same formula, so the union is satisfiability-preserving; the
    test suite additionally re-derives every exchanged clause by RUP
    replay over the formula plus previously verified exchanged clauses.
    Proof logs are {e not} exchange-aware (a worker's log omits imported
    premises), so callers that need a self-contained DRUP proof must race
    with sharing off or a single worker. *)

(** {2 The clause exchange} *)

(** Lock-free single-writer-per-worker clause exchange.

    One grow-only lane per worker holds fixed-width 4-word records
    [[n; l0; l1; l2]] ([n] in 1..3 packed literals, {!Cnf.Lit.to_index}
    encoding, unused slots 0).  The writer appends with plain stores and
    then publishes the new word count with one atomic store; a grown
    backing array is installed (atomically) {e before} the publish, so a
    reader that loads the published count first and the buffer second
    always sees at least that many valid words.  Readers track their own
    private cursor per lane and never write shared state — no locks, no
    CAS loops, no contention between readers. *)
module Exchange : sig
  type t

  val create : workers:int -> t

  (** Total records published across all lanes so far. *)
  val n_records : t -> int

  (** [publish ex ~worker ~n ~a ~b ~c] appends one clause record to
      [worker]'s lane.  Single writer per lane: only worker [worker] may
      call this. *)
  val publish : t -> worker:int -> n:int -> a:int -> b:int -> c:int -> unit

  (** A fresh all-zero cursor vector for a reader (one slot per lane). *)
  type cursor

  val cursor : t -> cursor

  (** [drain ex cur ~self f] feeds every record not yet seen by [cur]
      from every lane except [self] to [f], advances the cursor, and
      returns how many records were delivered. *)
  val drain :
    t -> cursor -> self:int -> (n:int -> a:int -> b:int -> c:int -> unit) -> int

  (** [pending ex cur ~self] is [true] when {!drain} would deliver at
      least one record — the cheap poll (one atomic load per lane) behind
      the workers' interrupt hook. *)
  val pending : t -> cursor -> self:int -> bool

  (** Snapshot of every published record as a packed-literal array, lane
      0 first, publication order within a lane — the certification
      surface for the RUP-replay audit. *)
  val records : t -> int array list
end

(** {2 Workers} *)

(** One portfolio seat: a display name, the search tunables, and a phase
    jitter seed (0 = keep the template's saved phases — worker 0 uses 0
    so that its trajectory stays bit-identical to the lone solver). *)
type worker = { name : string; config : Solver.config; phase_seed : int }

(** [default_workers ~k] is the standard diversification: worker 0 is the
    pristine MiniSat-profile template; workers 1.. cycle through the
    {!Profiles} spectrum (minisat, lingeling, cms5) with deterministic
    jitter on VSIDS decay, restart base and Luby-vs-geometric, plus a
    per-worker phase seed.  Deterministic in [k]. *)
val default_workers : k:int -> worker list

(** {2 Racing} *)

(** Per-worker result: final answer, frozen statistics (including
    [imported_clauses]/[exported_clauses]) and whether this seat won. *)
type report = {
  rname : string;
  rresult : Types.result;
  rstats : Types.stats;
  rwinner : bool;
}

type outcome = {
  result : Types.result;  (** the winner's answer; [Undecided] if none decided *)
  winner : int;  (** winning worker index, or -1 *)
  reports : report list;  (** one per worker, in worker order *)
  solver : Solver.t;
      (** the winning worker's solver (worker 0's when undecided) — its
          model, root units and learnt logs are the race's surviving
          state; incremental callers pin it as the session solver *)
  units : Cnf.Lit.t list;  (** all exchanged unit facts, for fact harvesting *)
  binaries : (Cnf.Lit.t * Cnf.Lit.t) list;  (** all exchanged binaries *)
  exchanged : int array list;  (** every exchanged clause, packed literals *)
  imported : int;  (** total imports across workers *)
  exported : int;  (** total exports across workers *)
}

(** [race ?conflict_budget ?time_budget_s ?interrupt ?share
    ?ternary_lbd_cap ~workers template] races the workers on [template]'s
    formula using {!Runtime.Pool.run_pinned} (one dedicated domain per
    worker, so no seat waits behind another).  Worker 0 {e is} [template]
    (its [config]/[phase_seed] fields are ignored); the others are deep
    clones, so [template]'s clauses are the immutable common snapshot.

    [conflict_budget] bounds each worker's own conflicts (the budget is
    per seat; callers charging a global ledger should sum the per-report
    conflict deltas).  [time_budget_s] is a shared wall-clock deadline.
    [interrupt] is the caller's cooperative-cancellation hook, polled by
    every worker alongside the race's internal token.

    [share] (default [true]) enables the clause exchange; workers export
    after every solve slice and import at restart boundaries.
    [ternary_lbd_cap] (default 0 = off) additionally exports learnt
    3-clauses with LBD at most the cap.

    Exceptions from a worker are re-raised after all workers have been
    joined. *)
val race :
  ?conflict_budget:int ->
  ?time_budget_s:float ->
  ?interrupt:(unit -> bool) ->
  ?share:bool ->
  ?ternary_lbd_cap:int ->
  workers:worker list ->
  Solver.t ->
  outcome

(** [solve ?conflict_budget ?time_budget_s ?share ?ternary_lbd_cap ~k f]
    builds a fresh solver over [f] and races {!default_workers}[ ~k] on
    it.  [k <= 1] degenerates to a lone solve of the pristine profile. *)
val solve :
  ?conflict_budget:int ->
  ?time_budget_s:float ->
  ?share:bool ->
  ?ternary_lbd_cap:int ->
  k:int ->
  Cnf.Formula.t ->
  outcome
