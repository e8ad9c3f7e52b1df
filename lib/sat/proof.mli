(** DRUP-style certificates with parity steps.

    When proof logging is enabled ({!Solver.enable_proof}), the solver
    records every clause it derives in derivation order, ending with the
    empty clause on UNSAT.  Each learnt clause of a CDCL solver has the RUP
    property (Reverse Unit Propagation): asserting the negation of all its
    literals and unit-propagating the formula plus the previously derived
    clauses yields a conflict.  {!check} verifies this independently of the
    solver's internals — a deliberately simple checker that serves as the
    trust anchor for UNSAT answers.

    Scope: clauses derived by the {!Parity} engine (in-search reason and
    conflict clauses, level-0 Gauss-Jordan units, units and contradictions
    folded by {!Solver.add_xor}, and the empty clause of an inconsistent
    row set) are logged as {!Parity} steps.  Each is implied by one XOR
    row ({!parity_row}) that is a GF(2) sum of the solver's XOR
    constraints and root-level units (Laitinen, Junttila and Niemelä), but
    it is in general not RUP over the clauses.  {!check} therefore accepts
    only logs without parity steps; [Audit.Certify] checks parity steps by
    row-space membership and replays the RUP steps around them. *)

type clause = Cnf.Lit.t list
(** A derived clause; [[]] is the empty clause. *)

type step =
  | Rup of clause  (** RUP over the formula plus the earlier steps *)
  | Parity of clause  (** implied by its {!parity_row} *)

(** [check formula proof] replays the certificate: every step up to the
    first empty clause must be RUP with respect to the formula plus all
    earlier steps, and the certificate must contain the empty clause.
    Returns [false] on the first failing step, including any {!Parity}
    step. *)
val check : Cnf.Formula.t -> step list -> bool

(** [is_rup ~clauses c] is the single-step check: propagating the
    negations of [c]'s literals in [clauses] reaches a conflict. *)
val is_rup : clauses:clause list -> clause -> bool

(** [root_units ~clauses] is every literal unit propagation derives from
    the empty assignment, or [None] if it reaches a conflict. *)
val root_units : clauses:clause list -> Cnf.Lit.t list option

(** [parity_row c] is the XOR row a parity step stands for: the clause
    excludes exactly one assignment of its variables (every literal
    false), and the row over those variables takes the parity that
    assignment violates.  The row implies the clause. *)
val parity_row : clause -> int list * bool
