(** A CDCL SAT solver in the MiniSat architecture.

    Two-watched-literal propagation, first-UIP conflict analysis with
    learnt-clause minimisation, VSIDS decision heuristic with phase saving,
    Luby restarts, and activity/LBD-driven learnt-clause database
    reduction.  Solving can be bounded by a number of conflicts (paper
    Section II-D), in which case {!Types.Undecided} is possible; the learnt
    unit and binary clauses accumulated so far can then be extracted —
    these are the facts Bosphorus feeds back into the ANF. *)

type t

(** Tunables distinguishing the solver profiles of the evaluation. *)
type config = {
  var_decay : float;  (** VSIDS decay, e.g. 0.95 *)
  clause_decay : float;  (** learnt-clause activity decay, e.g. 0.999 *)
  restart_first : int;  (** conflicts before the first restart *)
  use_luby : bool;  (** Luby sequence (else geometric growth) *)
  restart_inc : float;  (** geometric factor when [use_luby] is false *)
  learntsize_factor : float;  (** initial learnt limit as a fraction of clauses *)
  learntsize_inc : float;  (** growth of the learnt limit per reduction *)
  minimise_learnts : bool;  (** recursive learnt-clause minimisation *)
}

val default_config : config

(** Raised by feature combinations that are documented as unsupported and
    would otherwise silently produce unsound runs: {!add_xor} on a solver
    with proof logging enabled, and {!enable_proof} on a solver already
    carrying XOR constraints (parity-derived reason clauses are sound but
    not RUP over the clause database). *)
exception Unsupported of string

(** [create ?config ~nvars ()] makes a solver over variables
    [0..nvars-1]. *)
val create : ?config:config -> nvars:int -> unit -> t

(** Current number of variables. *)
val nvars : t -> int

(** [new_var t] adds one variable and returns its index. *)
val new_var : t -> int

(** [add_clause t lits] adds a problem clause (given over {!Cnf.Lit.t}).
    Returns [false] if the solver is already in an unsatisfiable state
    (adding the empty clause, or a root-level conflict). *)
val add_clause : t -> Cnf.Lit.t list -> bool

(** [add_cnf_clause t c] is [add_clause t (Cnf.Clause.to_list c)]
    without the list: the clause's literals are already ascending and
    distinct, so they go through root-level simplification straight into
    the clause arena. *)
val add_cnf_clause : t -> Cnf.Clause.t -> bool

(** [add_formula t f] adds every clause of a CNF formula, growing the
    variable set as needed. *)
val add_formula : t -> Cnf.Formula.t -> bool

(** [add_xor t ~vars ~parity] adds a native XOR constraint
    [vars(0) (+) ... (+) vars(n-1) = parity], handled by the {!Parity}
    engine: a two-watched-variable scan propagates implied literals and
    detects parity conflicts during search, and an incremental level-0
    Gauss-Jordan pass (at solve entry and restart boundaries) combines
    rows, surfaces implied units and detects root inconsistencies the
    watch scheme alone cannot see.  Duplicate variables cancel and
    root-level assignments are folded in; like {!add_clause}, returns
    [false] on an immediate root conflict.  Must be called before
    {!solve} at decision level 0.

    @raise Unsupported if proof logging is enabled on this solver. *)
val add_xor : t -> vars:int list -> parity:bool -> bool

(** [solve ?conflict_budget ?time_budget_s ?interrupt t] runs CDCL search.
    With a conflict budget (the paper's replicable bound, Section II-D)
    the search stops after that many conflicts; with a wall-clock budget
    (the outer evaluation timeout) it stops once the elapsed time exceeds
    it, checked every few hundred conflicts.  Either way the result is
    {!Types.Undecided}.

    The conflict bound is exact for positive budgets (exactly
    [conflict_budget] conflicts are spent before an [Undecided] return,
    measured by {!stats}) with one documented exception: a budget of 0
    still permits the single conflict needed to notice it, and a
    root-level conflict always completes to [Unsat] regardless of the
    budget.  Callers accounting cumulatively must therefore diff the
    solver-reported {!stats} conflicts across calls rather than sum the
    budgets they asked for.

    [interrupt] is polled at decision boundaries every 128 conflicts (and
    once on entry); when it returns [true] the search stops with
    {!Types.Undecided}, root-level facts learnt so far intact — the
    cooperative-cancellation hook used by {!Harness.Budget}-bounded
    driver runs. *)
val solve :
  ?conflict_budget:int ->
  ?time_budget_s:float ->
  ?interrupt:(unit -> bool) ->
  t ->
  Types.result

(** [probe t l] temporarily assumes literal [l] at a fresh decision level
    and unit-propagates: [`Conflict] means [¬l] is implied by the formula
    (a failed literal); [`Implied lits] lists every literal forced by the
    assumption.  State is restored before returning.  Requires a solver at
    decision level 0 with no pending conflict; returns [`Unusable] if the
    literal is already assigned or the solver is not okay. *)
val probe : t -> Cnf.Lit.t -> [ `Conflict | `Implied of Cnf.Lit.t list | `Unusable ]

(** [okay t] is [false] once unsatisfiability was established at the root
    level. *)
val okay : t -> bool

(** [burst_propagate t l ~reps] redoes the implication chain of decision
    literal [l] [reps] times (decide, propagate to fixpoint, backtrack to
    level 0) and returns the total number of literals assigned across the
    burst.  The hook behind the allocation regression gate: after a
    warm-up burst has grown all solver stores to steady state, a repeat
    burst must allocate exactly zero minor-heap words. *)
val burst_propagate : t -> Cnf.Lit.t -> reps:int -> int

(** Literals forced at decision level 0 so far (learnt unit facts). *)
val root_units : t -> Cnf.Lit.t list

(** Number of level-0 facts, for use as a high-water mark with
    {!root_units_from} when solving incrementally across rounds. *)
val n_root_units : t -> int

(** [root_units_from t k] is the level-0 facts after the first [k]
    (i.e. those discovered since [n_root_units] returned [k]). *)
val root_units_from : t -> int -> Cnf.Lit.t list

(** Learnt clauses of length 2 (grow-only log: reduction never deletes
    binaries, so every logged binary is still implied). *)
val learnt_binaries : t -> (Cnf.Lit.t * Cnf.Lit.t) list

(** Number of learnt binaries logged so far (high-water mark for
    {!learnt_binaries_from}). *)
val n_learnt_binaries : t -> int

(** [learnt_binaries_from t k] is the binaries logged after the first
    [k]. *)
val learnt_binaries_from : t -> int -> (Cnf.Lit.t * Cnf.Lit.t) list

(** All learnt clauses currently in the database, as literal lists. *)
val learnt_clauses : t -> Cnf.Lit.t list list

(** [enable_proof t] turns on DRUP-style proof logging (see {!Proof}).
    Call before adding clauses.  Not supported together with {!add_xor}
    (XOR-derived clauses are sound but not RUP over the CNF).

    @raise Unsupported if the solver already carries XOR constraints. *)
val enable_proof : t -> unit

(** Learnt-clause derivation log in order, ending with the empty clause if
    UNSAT was established; checkable with {!Proof.check}. *)
val proof : t -> Cnf.Lit.t list list

(** [value t v] is the root-level or model value of variable [v]. *)
val value : t -> int -> Types.lbool

val stats : t -> Types.stats

(** Force a learnt-database reduction (mark-then-compact); exposed for
    tests of the lazy-detach/compaction machinery. *)
val reduce_learnts : t -> unit

(** Force an arena compaction with a full watch rebuild. *)
val compact : t -> unit

(** Backing-store footprint of the clause arena in bytes. *)
val arena_bytes : t -> int

(** Words currently owned by deleted clauses awaiting compaction. *)
val arena_wasted_words : t -> int

(** Learnt clauses currently live (not deletion-marked). *)
val n_live_learnts : t -> int

(** {2 Portfolio hooks: cloning, jitter and the clause exchange}

    A portfolio (see {!Portfolio}) races diversified clones of one solver
    on separate domains.  The hooks below are all no-ops or unused on a
    lone solver: with sharing off, a solver's trajectory is bit-identical
    to one that never heard of them. *)

(** [clone ?config t] is a deep copy of the solver — arena, watch lists,
    trail, saved phases, activities, heap order, learnt logs — sharing no
    mutable state with [t], optionally with different search tunables.
    Until configs, phases or imported clauses diverge, clone and source
    walk bit-identical trajectories.  Cost: one blit per store. *)
val clone : ?config:config -> t -> t

(** [randomize_phases t ~seed] re-seeds the saved decision polarities
    from a deterministic xorshift stream — portfolio jitter.  Call at
    decision level 0, before {!solve}. *)
val randomize_phases : t -> seed:int -> unit

(** [set_ternary_export t ~max_lbd] also logs learnt 3-clauses with LBD
    at most [max_lbd] into a grow-only export log ([0], the default,
    logs none).  Affects only what the portfolio can export — never the
    search itself. *)
val set_ternary_export : t -> max_lbd:int -> unit

(** Packed-literal views of the grow-only export logs (a packed literal
    is [2*var + sign], the arena encoding).  [root_unit_packed t i] for
    [i < n_root_units t]; binary log words come in pairs, ternary words
    in triples.  The portfolio's export path copies these words straight
    into its exchange lanes — no intermediate lists. *)
val root_unit_packed : t -> int -> int

val binlog_words : t -> int
val binlog_word : t -> int -> int
val ternlog_words : t -> int
val ternlog_word : t -> int -> int

(** [import_packed t ~a ~b ~c ~n] adopts a clause of [n] (1..3) packed
    literals learnt by another worker, at decision level 0: the clause is
    root-simplified without allocation and enters the database as a
    learnt (unit imports are enqueued and propagated).  Imports are never
    echoed into this solver's export logs and never enter its proof log —
    soundness of exchanged clauses is certified externally (RUP replay
    over the exchange, see Audit).  Returns [false] once the solver is
    root-UNSAT. *)
val import_packed : t -> a:int -> b:int -> c:int -> n:int -> bool

(** [note_exported t n] credits [n] exported clauses to {!stats} (the
    exchange, not the solver, performs the export). *)
val note_exported : t -> int -> unit

(** [invariant_violations t] checks internal consistency — watch lists
    (every clause watched on its first two literals, every watcher
    well-formed), trail/assignment agreement, queue-head bounds, and XOR
    watch sanity — returning a human-readable description per violation
    (empty list when healthy).  This is the solver-side primitive behind
    the audit layer's invariant registry; with the environment variable
    [BOSPHORUS_AUDIT] set, {!solve} runs it on entry and fails fast. *)
val invariant_violations : t -> string list

(** {2 Parity diagnostics}

    Observation hooks for the {!Parity} engine — certification tests and
    the driver's gauss gating read these; none of them affects search. *)

(** Live parity rows currently held by the solver's {!Parity} engine. *)
val n_parity_rows : t -> int

(** Current live parity rows as (sorted variable list, parity) pairs. *)
val parity_rows : t -> (int list * bool) list

(** [set_parity_log t true] records every parity-derived reason/conflict
    clause for later retrieval with {!parity_reasons}; [false] (the
    default) stops recording and discards the log.  Recording allocates —
    leave it off outside certification tests. *)
val set_parity_log : t -> bool -> unit

(** Parity-derived reason/conflict clauses recorded so far, oldest
    first. *)
val parity_reasons : t -> Cnf.Lit.t list list
