(** ANF propagation (paper Section II-A) and the per-variable bookkeeping of
    Section III-B: every variable carries a value (0, 1 or undetermined) and
    an equivalence literal, and the occurrence lists of the {!Anf.System}
    limit rewriting to the polynomials a variable actually appears in.

    Equivalences form a union-find over literals: [repr_of state x] is the
    representative variable and the parity of [x] relative to it. *)

type state

val create : unit -> state

(** [value_of state x] is the forced value of [x], if any (following
    equivalences). *)
val value_of : state -> int -> bool option

(** [repr_of state x] is [(root, parity)]: [x = root (+ parity)]. *)
val repr_of : state -> int -> int * bool

(** [assign state x v] forces [x = v].  [`Conflict] means 1 = 0 was
    derived. *)
val assign : state -> int -> bool -> [ `Ok | `Conflict ]

(** [equate state x y ~negated] merges the classes of [x] and [y]
    ([x = y + negated]). *)
val equate : state -> int -> int -> negated:bool -> [ `Ok | `Conflict ]

(** [normalise state p] rewrites [p] replacing every determined variable by
    its value and every variable by its representative literal, in one
    pass over the monomials ({!Anf.Poly.rewrite}); [p] itself comes back
    when no variable of it has a value or a representative other than
    itself. *)
val normalise : state -> Anf.Poly.t -> Anf.Poly.t

(** Determined variables as [(var, value)], ascending. *)
val assignments : state -> (int * bool) list

(** Non-root variables as [(var, root, parity)], ascending. *)
val equivalences : state -> (int * int * bool) list

(** The assignments and equivalences re-expressed as ANF facts
    ([x + value], [x + y + parity]). *)
val fact_polys : state -> Anf.Poly.t list

(** [propagate state system] runs propagation to fixed point, rewriting the
    system in place: tautologies are removed, every polynomial is
    normalised, and value/equivalence shapes (including all-ones monomials)
    are absorbed into [state].  Returns [`Contradiction] iff 1 = 0 was
    derived (the system then contains the polynomial 1). *)
val propagate : state -> Anf.System.t -> [ `Fixedpoint | `Contradiction ]
