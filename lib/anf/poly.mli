(** Boolean polynomials in Algebraic Normal Form over GF(2).

    A polynomial is an XOR (GF(2) sum) of distinct monomials, kept in the
    canonical descending order of {!Monomial.compare}; two equal polynomials
    are therefore structurally equal.  Following the paper's convention, a
    polynomial stands for the equation [p = 0]. *)

type t

val zero : t
val one : t

(** [var x] is the polynomial consisting of the single variable [x]. *)
val var : int -> t

(** [constant b] is [one] if [b] else [zero]. *)
val constant : bool -> t

(** [of_monomials ms] sums the monomials in [ms]; pairs of equal monomials
    cancel (GF(2)). *)
val of_monomials : Monomial.t list -> t

(** Monomials in canonical (descending) order. *)
val monomials : t -> Monomial.t list

(** Number of monomials (terms). *)
val n_terms : t -> int

(** [term p i] is the [i]-th monomial in canonical order,
    [0 <= i < n_terms p]; allocates nothing. *)
val term : t -> int -> Monomial.t

(** [leading p] is the canonically largest monomial.
    Raises [Invalid_argument] on the zero polynomial. *)
val leading : t -> Monomial.t

val is_zero : t -> bool
val is_one : t -> bool

(** [has_constant_term p] is [true] iff the monomial 1 occurs in [p]. *)
val has_constant_term : t -> bool

(** Total degree (0 for constants; the zero polynomial has degree 0). *)
val degree : t -> int

(** Ascending list of distinct variables occurring in [p]. *)
val vars : t -> int list

(** [vars_array p] is [Array.of_list (vars p)], built without the list. *)
val vars_array : t -> int array

(** [max_var p] is the largest variable index, or [-1] if none. *)
val max_var : t -> int

(** [contains_var p x] is [true] iff [x] occurs in some monomial of [p]. *)
val contains_var : t -> int -> bool

(** GF(2) sum (XOR of monomial sets). *)
val add : t -> t -> t

(** Product, normalised with x² = x. *)
val mul : t -> t -> t

(** [mul_monomial p m] is [p] times the monomial [m] (the XL expansion
    step); cheaper than building a polynomial from [m] first. *)
val mul_monomial : t -> Monomial.t -> t

(** [subst p ~target ~by] replaces every occurrence of variable [target]
    with the polynomial [by] and renormalises. *)
val subst : t -> target:int -> by:t -> t

(** [rewrite lit p] substitutes every variable [x] at once by the literal
    with code [lit x] (see {!Monomial.rewrite}: a constant, a variable or
    a variable plus 1) and renormalises.  Returns [p] itself when every
    code is the identity [2x].  Because each literal is a single variable
    or constant, this equals substituting the variables one after
    another, as long as no literal names a variable that is itself
    rewritten. *)
val rewrite : (int -> int) -> t -> t

(** [assign p ~target ~value] is [subst] by a constant, but cheaper. *)
val assign : t -> target:int -> value:bool -> t

(** [eval assignment p] evaluates the polynomial (not the equation): the
    XOR of its monomials' values. *)
val eval : (int -> bool) -> t -> bool

(** [classify p] inspects the shape the propagation rules of Section II-A
    care about. *)
type shape =
  | Tautology                       (** 0 = 0 *)
  | Contradiction                   (** 1 = 0 *)
  | Assign of int * bool            (** x = value, from [x] or [x+1] *)
  | Equiv of int * int * bool       (** x = y (+1), from [x+y(+1)]; first var larger *)
  | All_ones of int list            (** x_{i1}...x_{ip} + 1 = 0 forces all 1 *)
  | Other

val classify : t -> shape

(** [is_linear p] is [true] iff every monomial has degree <= 1. *)
val is_linear : t -> bool

val equal : t -> t -> bool

(** A total order (used for canonical system ordering and dedup sets). *)
val compare : t -> t -> int

val hash : t -> int

(** Renders as e.g. [x1*x2 + x3 + 1]; the zero polynomial renders as [0].
    {!pp} and {!to_string} print the same text. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
