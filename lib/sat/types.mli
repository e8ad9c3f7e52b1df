(** Shared types for the SAT solver. *)

(** Outcome of a (possibly budgeted) solve. *)
type result =
  | Sat of bool array  (** model indexed by variable *)
  | Unsat
  | Undecided          (** conflict budget exhausted (paper Section II-D case 3) *)

val pp_result : Format.formatter -> result -> unit

(** Search statistics. *)
type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable watch_visits : int;
      (** watcher pairs examined by clausal propagation *)
  mutable blocker_hits : int;
      (** watcher pairs skipped because their blocker literal was true *)
  mutable restarts : int;
  mutable learnt_clauses : int;
  mutable deleted_clauses : int;
  mutable max_decision_level : int;
  mutable lazy_detach_drops : int;
      (** watchers of deleted clauses dropped during propagation (the lazy
          replacement for eager watch-list detach scans) *)
  mutable arena_gcs : int;  (** clause-arena compactions performed *)
  mutable imported_clauses : int;
      (** clauses adopted from other portfolio workers via the exchange *)
  mutable exported_clauses : int;
      (** clauses this solver published to the exchange *)
  mutable parity_propagations : int;
      (** literals implied by the in-search parity (XOR) propagator *)
  mutable parity_conflicts : int;
      (** conflicts detected by the parity propagator *)
  mutable gauss_rounds : int;
      (** level-0 Gauss-Jordan assimilation passes over the parity rows *)
}

val fresh_stats : unit -> stats

(** Structural copy (a cloned solver keeps counting from its source's
    totals rather than aliasing them). *)
val copy_stats : stats -> stats
val pp_stats : Format.formatter -> stats -> unit
