(** Disjunctions of literals. *)

type t

(** [of_list lits] builds a clause; duplicate literals are collapsed and
    literals are sorted.  The empty clause (always false) is allowed. *)
val of_list : Lit.t list -> t

(** [of_sorted_array lits] is the clause of [lits], which must be
    strictly ascending (no sorting, no copy: the clause takes the array,
    which must not be written to afterwards).  Raises [Invalid_argument]
    otherwise. *)
val of_sorted_array : Lit.t array -> t

val to_list : t -> Lit.t list
val length : t -> int

(** [get c i] is the [i]-th literal in ascending order,
    [0 <= i < length c]. *)
val get : t -> int -> Lit.t
val is_empty : t -> bool

(** [is_tautology c] is [true] iff [c] contains both [l] and [¬l]. *)
val is_tautology : t -> bool

(** [mem c l] tests literal membership. *)
val mem : t -> Lit.t -> bool

(** Ascending list of distinct variables. *)
val vars : t -> int list

(** Largest variable index, or [-1] for the empty clause. *)
val max_var : t -> int

(** Number of positive (unnegated) literals — drives the clause-cutting
    rule of the CNF-to-ANF conversion (Section III-D). *)
val n_positive : t -> int

(** [eval assignment c] is [true] iff some literal is satisfied. *)
val eval : (int -> bool) -> t -> bool

(** [subsumes a b] is [true] iff every literal of [a] occurs in [b]. *)
val subsumes : t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

(** Prints as [(x1 | ~x2 | x3)]. *)
val pp : Format.formatter -> t -> unit
