(** Passive record of the evidence a run leaves behind, for post-hoc
    certification by the audit layer ([lib/audit]).

    The driver cannot call the audit library (that would be a dependency
    cycle), so when {!Config.t.audit_trail} is set it records the raw
    materials instead: the input ANF system as given, and for every SAT
    stage the CNF that was handed to the solver, the XOR rows fed to its
    parity engine and the solver's proof log.  [Audit.Certify] later
    replays the logs (RUP steps with [Proof.is_rup], parity steps by
    row-space membership over the rows) and re-derives algebraic facts by
    GF(2) row-space membership over products of the input polynomials.
    Nothing recorded here is trusted: the certifier checks each row
    against the formula before it uses it. *)

type sat_stage = {
  formula : Cnf.Formula.t;  (** CNF given to the solver for this stage *)
  xors : (int list * bool) list;
      (** XOR rows fed to the solver's parity engine ({!Sat.Solver.add_xor}) *)
  proof : Sat.Proof.step list;  (** the solver's derivation log, in order *)
}

type t

(** [create ~input] starts a trail for a run over the given master ANF. *)
val create : input:Anf.Poly.t list -> t

val record_sat_stage : t -> sat_stage -> unit

(** The input system, exactly as passed to [Driver.run]. *)
val input : t -> Anf.Poly.t list

(** Recorded SAT stages, in run order. *)
val sat_stages : t -> sat_stage list
