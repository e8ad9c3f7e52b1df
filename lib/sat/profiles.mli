(** The three solver configurations of the paper's evaluation (Table II).

    The original experiments compare MiniSat 2.2 (a minimalistic CDCL
    solver), Lingeling (a high-performance solver with heavy pre- and
    inprocessing), and CryptoMiniSat5 (CDCL plus native Gauss–Jordan
    elimination over XOR constraints).  We reproduce that spectrum as three
    profiles of our CDCL core:

    - {!Minisat}: the plain core, MiniSat-like defaults, no preprocessing.
    - {!Lingeling}: SatELite-style preprocessing (subsumption + bounded
      variable elimination) and a more aggressive search configuration.
    - {!Cms5}: XOR recovery from the clauses; the recovered rows go to
      the core's in-search Gauss–Jordan engine ({!Parity}) alongside the
      formula. *)

type profile = Minisat | Lingeling | Cms5

val all : profile list
val name : profile -> string
val of_name : string -> profile option

(** Search tunables of a profile, for callers that build the solver
    themselves (the portfolio diversifies these across workers). *)
val config : profile -> Solver.config

type output = {
  result : Types.result;  (** model given in the original variable numbering *)
  stats : Types.stats option;  (** CDCL statistics ([None] if preprocessing decided) *)
}

(** [solve ?conflict_budget ?time_budget_s profile f] solves [f] under the
    profile.  A returned model is always expressed over the original
    variables of [f] (preprocessing is transparent). *)
val solve :
  ?conflict_budget:int -> ?time_budget_s:float -> profile -> Cnf.Formula.t -> output
