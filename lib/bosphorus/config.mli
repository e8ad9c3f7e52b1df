(** Tunable parameters of the Bosphorus workflow (Section IV lists the
    paper's settings; defaults here are scaled to laptop-size instances,
    see DESIGN.md). *)

(** Whether SAT stages hand the encoding's XOR constraints to the
    solver's in-search parity engine ({!Sat.Parity}: watched-row
    propagation plus level-0 Gauss-Jordan assimilation). *)
type gauss_mode =
  | Gauss_auto  (** on when the round carries at least 8 XORs *)
  | Gauss_on
  | Gauss_off

type t = {
  xl_sample_bits : int;
      (** M: subsample so the linearised system has ~2^M cells (paper: 30) *)
  xl_expand_bits : int;
      (** delta-M: expand until ~2^(M+dM) cells (paper: 4) *)
  xl_degree : int;  (** D: multiplier-monomial degree bound (paper: 1) *)
  karnaugh_vars : int;
      (** K: Karnaugh-map conversion for polynomials with <= K variables
          (paper: 8).  At most 8: {!Anf_to_cnf} raises [Invalid_argument]
          above that, and the CLI refuses [-K] outside 0..8. *)
  xor_cut_length : int;  (** L: max terms per cut XOR piece (paper: 5) *)
  clause_cut_positive : int;
      (** L': max positive literals per clause in CNF-to-ANF (paper: 5) *)
  sat_budget_start : int;  (** C: initial SAT conflict budget (paper: 10^4) *)
  sat_budget_max : int;  (** budget ceiling (paper: 10^5) *)
  sat_budget_step : int;  (** budget increment when SAT learns nothing new *)
  max_iterations : int;  (** safety bound on the learning loop *)
  stop_on_solution : bool;
      (** exit the loop when the SAT solver finds a satisfying assignment *)
  facts_from_monomial_aux : bool;
      (** extension beyond the paper: also harvest unit facts on monomial
          auxiliary variables (sound; off by default for fidelity) *)
  stage_time_s : float;
      (** wall-clock budget for one XL or ElimLin pass; a pass past its
          budget stops gracefully and returns the facts found so far.  The
          paper bounds Bosphorus's total runtime the same way (1,000 of the
          5,000 s timeout). *)
  sat_probe_vars : int;
      (** extension beyond the paper: failed-literal probing in the SAT
          stage — assume each of the first N ANF variables both ways and
          harvest forced values and equivalences from unit propagation
          (0 disables; off by default for fidelity) *)
  seed : int;  (** RNG seed for XL/ElimLin subsampling *)
  audit_trail : bool;
      (** record an {!Audit_trail.t} in the outcome — the input system plus,
          per SAT stage, the emitted CNF and the solver's DRUP-style proof
          log — so the audit layer ([lib/audit]) can independently certify
          every learnt fact after the run.  Off by default: proof logging
          retains every learnt clause. *)
  jobs : int;
      (** domain-pool width for the parallel kernels: GF(2) elimination
          panel updates, XL expansion and linearizer column hashing all
          fan out over [jobs] domains of the shared {!Runtime.Pool}.
          1 (the default) runs everything sequentially on the calling
          domain.  Results are identical for every value — see DESIGN.md,
          "Parallel runtime". *)
  incremental_sat : bool;
      (** keep one SAT solver and one ANF-to-CNF conversion state alive
          across loop iterations: each round encodes only the
          not-yet-seen polynomials and feeds the delta clauses to the
          running solver, which keeps its learnt clauses, VSIDS
          activities and saved phases.  Semantics-preserving (the final
          fact set matches the from-scratch driver); on by default.
          See DESIGN.md, "Clause arena & incremental SAT rounds". *)
  timeout_s : float option;
      (** global wall-clock budget for one driver run ([--timeout]).  On
          expiry the run degrades gracefully: in-flight stages stop at
          their next cooperative poll, the outcome carries every fact
          learnt so far and reports [Degraded] with a structured
          {!Harness.Budget.report}.  The driver reserves a slice of this
          budget (25%, capped at 1s) as a finalization grace period so
          the whole call — including folding in the last partial fact
          batch and emitting the processed CNF — respects the timeout,
          not just the learning loop.  [None] (default): unlimited. *)
  max_memory_monomials : int option;
      (** global memory ceiling expressed as a monomial/clause count
          ([--max-memory-monomials]) — the gauge tracks the master
          system's monomial total and each XL expansion's distinct-column
          count.  [None] (default): unlimited. *)
  max_total_conflicts : int option;
      (** cumulative CDCL conflict ceiling across all SAT rounds
          ([--max-total-conflicts]), accounted from solver-reported
          conflict counts (not requested budgets).  Per-round budgets are
          still [sat_budget_*], clipped to what remains.  [None]
          (default): unlimited. *)
  portfolio : int;
      (** SAT-stage portfolio width ([--portfolio]): race K diversified
          solver configurations on dedicated domains with lock-free
          clause sharing and first-finisher cancellation (see
          {!Sat.Portfolio}).  The winner's solver carries the round's
          facts; with [incremental_sat] it becomes the surviving session
          solver.  1 (the default) keeps the single-solver semantics
          bit-for-bit.  Ignored when [audit_trail] is on — per-worker
          DRUP logs are not exchange-aware, so audited runs stay
          single-solver. *)
  gauss : gauss_mode;
      (** in-search parity reasoning over the encoding's XOR constraints
          ([--gauss]): the ANF-to-CNF conversion (and, for CNF inputs,
          {!Sat.Xor_module.recover}) reports the XOR rows underlying the
          emitted clauses, and SAT stages feed them to {!Sat.Solver.add_xor}
          so the {!Sat.Parity} engine propagates them during search.
          [Gauss_auto] (the default) engages when a round carries at least
          8 rows.  Incompatible with [audit_trail]
          ([Gauss_on] + audit is rejected; auto simply stays off) —
          parity-derived reasons are not RUP steps. *)
}

val default : t

(** The parameters of the paper's Section IV experiments, verbatim. *)
val paper : t
