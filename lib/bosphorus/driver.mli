(** The Bosphorus workflow (Fig. 1): an XL – ElimLin – SAT-solver
    fact-learning loop over a master ANF, with ANF propagation applied to
    the input and after every batch of learnt facts, run to the fixed point
    at which no new facts are produced.

    The master system is the only mutable copy; each technique works on a
    snapshot and its learnt facts are added to the master if not already
    present (Section III-A).  If the equation 1 = 0 appears the run stops
    with [`Unsat]; if the SAT solver finds a satisfying assignment the
    solution is recorded (and, under [Config.stop_on_solution], the loop
    exits). *)

type status =
  | Solved_sat of (int * bool) list
      (** assignment to the original ANF variables found by the SAT step *)
  | Solved_unsat  (** 1 = 0 derived (by ANF techniques or the SAT solver) *)
  | Processed  (** fixed point reached without deciding the instance *)
  | Degraded
      (** a resource budget ({!Config.t.timeout_s},
          [max_memory_monomials], [max_total_conflicts], or an injected
          fault) tripped before the fixed point: the outcome still
          carries every fact learnt up to the trip — all sound — and
          [budget_report] says what tripped, in which layer, at which
          iteration *)

(** Per-SAT-round encoding and search counters.  Under
    {!Config.t.incremental_sat}, [round_encoded]/[round_reused] count the
    polynomials newly encoded vs skipped as already encoded — an
    iteration that changed nothing shows [round_encoded = 0] — and the
    propagation/conflict counters are deltas for that round. *)
type round_info = {
  round_encoded : int;
  round_reused : int;
  round_delta_clauses : int;  (** clauses emitted (and fed to the solver) this round *)
  round_propagations : int;
  round_conflicts : int;
}

type outcome = {
  status : status;
  anf : Anf.Poly.t list;
      (** processed ANF: normalised master system plus the value and
          equivalence facts *)
  cnf : Cnf.Formula.t;  (** CNF of the processed ANF (learnt facts included) *)
  facts : Facts.t;
  iterations : int;  (** loop iterations executed *)
  sat_calls : int;
  sat_rounds : round_info list;  (** one entry per SAT stage, in order *)
  trail : Audit_trail.t option;
      (** evidence for post-hoc fact certification, recorded when
          {!Config.t.audit_trail} is set (see {!Audit_trail}) *)
  budget_report : Harness.Budget.report option;
      (** resource accounting for the run, present whenever a budget
          ceiling was configured or a trip occurred (fault injection can
          trip an otherwise unlimited run); [None] for an unbounded,
          untripped run *)
}

(** {1 Pinned solver sessions}

    A {!Session.t} lets a caller that iterates on one system — a service
    client refining a cipher instance request after request — keep the
    incremental ANF-to-CNF conversion state and the warm SAT solver
    alive {e across} driver runs, not just across the rounds of one run.

    Soundness rule: the pinned solver's clauses are consequences of the
    session's previous input system, so they may carry over exactly when
    the new input is a {b superset} of the previous one (same
    {!Config.t}, variables within the pinned range).  {!Session.compatible}
    is that test; an incompatible run silently resets the session and
    runs from scratch, so a session can never make a run unsound — only
    warmer.  Results of a compatible warm run may differ from a cold run
    only by {e knowing more} (the solver starts with the previous run's
    learnt clauses); statuses Sat/Unsat agree with the cold semantics.

    A run takes the pinned state out of the session when it starts and
    pins its own state when it ends, so a run that raises leaves nothing
    pinned.  A fresh-mode run ([incremental_sat = false]) pins nothing.

    A session is single-owner: it must not be used by two concurrent
    runs (the service daemon checks sessions out under a lock). *)
module Session : sig
  type t

  val create : unit -> t

  (** Driver runs that were handed this session (compatible or not). *)
  val runs : t -> int

  (** Times a handed-in session had pinned state that could not be
      reused and was discarded. *)
  val resets : t -> int

  (** Clauses already sitting in the pinned solver — what the next
      compatible run reuses without re-encoding (0 when nothing is
      pinned). *)
  val carried_clauses : t -> int

  (** Polynomials already encoded by the pinned conversion state. *)
  val carried_polys : t -> int

  (** Would a run of [polys] under [config] reuse the pinned state?
      True iff state is pinned, [config] equals the pinning run's
      (including [incremental_sat] on), [polys] is a superset of the
      previous input and stays within the pinned variable range. *)
  val compatible : t -> config:Config.t -> Anf.Poly.t list -> bool
end

(** [run ?config ?budget ?session polys] preprocesses the ANF system
    [polys].  [budget], when given, replaces the budget the driver would
    build from [config]'s ceilings — the caller owns ceilings, trips and
    external cancellation ({!Harness.Budget.cancel_now}); [config]'s
    ceiling fields are ignored.  [session] pins the incremental solver
    across calls (see {!Session}). *)
val run :
  ?config:Config.t ->
  ?budget:Harness.Budget.t ->
  ?session:Session.t ->
  Anf.Poly.t list ->
  outcome

(** [run_cnf ?config ?xors f] uses Bosphorus as a CNF preprocessor
    (Section III-D): convert to ANF with clause cutting, learn, and return
    the processed result.  [xors] are native XOR constraints (e.g. from an
    XOR-extended DIMACS file, {!Cnf.Dimacs.parse_file_extended}); they join
    the ANF directly as linear polynomials — the encoding they were
    invented to avoid.  Per the paper, callers should solve the original
    CNF conjoined with the fact clauses; {!augmented_cnf} builds exactly
    that. *)
val run_cnf :
  ?config:Config.t ->
  ?budget:Harness.Budget.t ->
  ?xors:(int list * bool) list ->
  Cnf.Formula.t ->
  outcome

(** [augmented_cnf f outcome] is the original formula [f] strengthened with
    the learnt facts of [outcome] (facts over original CNF variables only),
    the paper's recommended output for the CNF use-case. *)
val augmented_cnf : Cnf.Formula.t -> outcome -> Cnf.Formula.t

(** Per-technique stage toggles used by the ablation benchmarks.
    [use_groebner] enables the Section-V extension (degree-bounded
    Buchberger, {!Groebner}); it is off in {!all_stages}, which matches the
    paper's tool. *)
type stages = {
  use_xl : bool;
  use_elimlin : bool;
  use_sat : bool;
  use_groebner : bool;
}

val all_stages : stages

(** [run_with_stages ?config ~stages polys] is {!run} with techniques
    disabled per [stages]. *)
val run_with_stages :
  ?config:Config.t ->
  ?budget:Harness.Budget.t ->
  ?session:Session.t ->
  stages:stages ->
  Anf.Poly.t list ->
  outcome
