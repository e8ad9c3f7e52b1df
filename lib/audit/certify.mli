(** Independent re-derivation (or refutation) of every learnt fact.

    Two certification paths, chosen per fact origin:

    - {b Row space}: a fact [f] is sound iff [f = 0] follows from the input
      system, and XL/ElimLin/propagation facts are by construction GF(2)
      linear combinations of {e products} of input polynomials (and of
      earlier facts) with bounded-degree monomial multipliers.  The
      certifier grows an incremental row-echelon span ({!Span}) of such
      products, escalating the multiplier degree until the fact reduces to
      zero.  Certified facts are absorbed as new generators and their
      assignments/equivalences replayed into a mirrored [Anf_prop] state —
      the same substitutions the driver applied — so later facts stay
      derivable at low degree.

    - {b RUP}: SAT-solver facts (root units, learnt binaries, probe
      results) are checked against the CNF the solver actually saw: the
      stage's proof log (recorded by {!Bosphorus.Audit_trail} under
      [Config.audit_trail]) is replayed step by step, and the fact's
      clause encoding must itself be RUP against the formula plus the
      verified steps.  A RUP step must pass {!Sat.Proof.is_rup}.  A
      parity step is never tried as RUP: its row
      ({!Sat.Proof.parity_row}) must lie, by {!Span} membership, in the
      span of the stage's XOR rows and of the unit rows of the literals
      unit propagation derives from the verified clauses.  A recorded
      XOR row joins that span only if the stage formula refutes, by RUP,
      every assignment of its variables with the wrong parity.

    A fact falsified by the run's own satisfying assignment is [Refuted]
    outright.  Facts that match neither path within the degree/product
    budgets are [Unknown] — not refuted; bounded-degree non-membership
    proves nothing. *)

type method_ =
  | Row_space of int  (** certified at this multiplier degree *)
  | Rup of int  (** certified against this SAT stage (0-based) *)

type verdict = Certified of method_ | Refuted of string | Unknown of string

type fact_report = {
  index : int;  (** position in [Facts.to_list] *)
  origin : Bosphorus.Facts.origin;
  fact : Anf.Poly.t;
  verdict : verdict;
}

type report = {
  facts : fact_report list;
  n_facts : int;
  n_certified : int;
  n_refuted : int;
  n_unknown : int;
  products_tried : int;  (** generator * multiplier products expanded *)
  truncated : bool;  (** the product budget was exhausted *)
}

val all_certified : report -> bool

(** [certify outcome] certifies [outcome.facts] in insertion order.
    The input system is taken from [~input] if given, else from
    [outcome.trail]; with neither, every fact is [Unknown].
    [max_product_degree] bounds multiplier-degree escalation (default:
    max input degree, at least 2); [max_products] bounds the total number
    of products expanded (default 200_000, sets [truncated]). *)
val certify :
  ?max_product_degree:int ->
  ?max_products:int ->
  ?input:Anf.Poly.t list ->
  Bosphorus.Driver.outcome ->
  report

(** Summary plus one line per non-certified fact. *)
val pp : Format.formatter -> report -> unit

(** ["C/N facts certified (R refuted, U unknown)"] plus per-origin counts. *)
val pp_summary : Format.formatter -> report -> unit
