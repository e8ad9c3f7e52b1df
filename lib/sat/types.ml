type result = Sat of bool array | Unsat | Undecided

let pp_result ppf = function
  | Sat _ -> Format.pp_print_string ppf "SAT"
  | Unsat -> Format.pp_print_string ppf "UNSAT"
  | Undecided -> Format.pp_print_string ppf "UNDECIDED"

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_clauses : int;
  mutable deleted_clauses : int;
  mutable max_decision_level : int;
  mutable lazy_detach_drops : int;
  mutable arena_gcs : int;
  mutable imported_clauses : int;
  mutable exported_clauses : int;
  mutable parity_propagations : int;
  mutable parity_conflicts : int;
  mutable gauss_rounds : int;
}

let fresh_stats () =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_clauses = 0;
    deleted_clauses = 0;
    max_decision_level = 0;
    lazy_detach_drops = 0;
    arena_gcs = 0;
    imported_clauses = 0;
    exported_clauses = 0;
    parity_propagations = 0;
    parity_conflicts = 0;
    gauss_rounds = 0;
  }

let copy_stats s =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    restarts = s.restarts;
    learnt_clauses = s.learnt_clauses;
    deleted_clauses = s.deleted_clauses;
    max_decision_level = s.max_decision_level;
    lazy_detach_drops = s.lazy_detach_drops;
    arena_gcs = s.arena_gcs;
    imported_clauses = s.imported_clauses;
    exported_clauses = s.exported_clauses;
    parity_propagations = s.parity_propagations;
    parity_conflicts = s.parity_conflicts;
    gauss_rounds = s.gauss_rounds;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "conflicts=%d decisions=%d propagations=%d restarts=%d learnt=%d deleted=%d max_level=%d \
     lazy_drops=%d arena_gcs=%d imported=%d exported=%d parity_props=%d parity_conflicts=%d \
     gauss_rounds=%d"
    s.conflicts s.decisions s.propagations s.restarts s.learnt_clauses s.deleted_clauses
    s.max_decision_level s.lazy_detach_drops s.arena_gcs s.imported_clauses
    s.exported_clauses s.parity_propagations s.parity_conflicts s.gauss_rounds
