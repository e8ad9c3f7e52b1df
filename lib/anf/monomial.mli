(** Monomials over Boolean variables.

    A monomial is a product of distinct variables (indices [>= 0]); since
    x² = x in GF(2), exponents never exceed one.  The empty product is the
    constant monomial 1.  Represented as a strictly increasing array of
    variable indices, so structural operations are linear merges. *)

type t

(** The constant monomial 1 (degree 0). *)
val one : t

(** [var x] is the degree-1 monomial consisting of variable [x].
    Raises [Invalid_argument] if [x < 0]. *)
val var : int -> t

(** [of_vars xs] is the product of the variables in [xs] (duplicates are
    collapsed, per x² = x). *)
val of_vars : int list -> t

(** Ascending list of variables in the monomial. *)
val vars : t -> int list

(** [view m] is the ascending array of [m]'s variables — [m]'s own
    storage, not a copy, so it costs nothing; the caller must not write
    to it. *)
val view : t -> int array

(** Number of distinct variables. *)
val degree : t -> int

val is_one : t -> bool

(** [contains m x] is [true] iff variable [x] occurs in [m]. *)
val contains : t -> int -> bool

(** [mul a b] is the product (set union of variables). *)
val mul : t -> t -> t

(** [support ms] is the ascending array of distinct variables occurring in
    the monomials [ms]. *)
val support : t array -> int array

(** [remove_var m x] is [m] with variable [x] deleted (identity if absent). *)
val remove_var : t -> int -> t

(** [divides a b] is [true] iff every variable of [a] occurs in [b]. *)
val divides : t -> t -> bool

(** [max_var m] is the largest variable index, or [-1] for the constant 1. *)
val max_var : t -> int

(** Graded order, higher degree first and lexicographically ascending
    within a degree; used both as the canonical display order and to put
    higher-degree monomial columns leftmost in linearised matrices, so that
    Gauss–Jordan elimination pushes learnt linear facts to the trailing
    columns (Table I of the paper).  [compare a b < 0] means [a] sorts
    before [b], i.e. [a] is the "larger" monomial. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val hash : t -> int

(** [hash_fold h m] mixes every variable of [m] into the running hash [h];
    allocates nothing.  Folding it over a polynomial's monomials hashes
    the whole polynomial. *)
val hash_fold : int -> t -> int

(** {2 One-pass literal rewriting}

    A rewrite maps each variable to a {e literal code}: [2r] for the
    variable [r], [2r + 1] for [r + 1], {!lit_zero} and {!lit_one} for the
    constants.  The identity code of [x] is [2x]. *)

val lit_zero : int
val lit_one : int

(** [rewrites lit m] is [true] iff some variable [x] of [m] has
    [lit x <> 2 * x].  Allocates nothing. *)
val rewrites : (int -> int) -> t -> bool

(** [rewrite lit m buf] writes the codes of [m]'s variables into [buf]
    (of length at least [degree m]), ascending and without duplicates
    (x·x = x), dropping the constant 1, and returns how many it wrote.  It
    returns [-1] when the product is 0: some variable maps to 0, or both
    [r] and [r + 1] occur.  Allocates nothing. *)
val rewrite : (int -> int) -> t -> int array -> int

(** [of_lits buf n ~mask] is one monomial of the expansion of the product
    of the codes [buf.(0 .. n-1)] (as written by {!rewrite}): every plain
    variable, and the root of the [j]-th negated code iff bit [j] of
    [mask] is set.  The sum over all [2^k] masks, [k] the number of
    negated codes, is the product. *)
val of_lits : int array -> int -> mask:int -> t

(** [eval assignment m] evaluates under [assignment] (total on [vars m]). *)
val eval : (int -> bool) -> t -> bool

(** Renders as [x1*x3] (or [1] for the constant); {!pp} and {!to_string}
    print the same text. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {2 Dense ids}

    One linearisation's monomials, each numbered once: the first monomial
    interned gets id 0, the next new one id 1, and so on.  A table is
    meant for one call on one domain; it is not thread-safe. *)
module Ids : sig
  type mono := t
  type t

  (** [create ?size_hint ()] is an empty table sized for about
      [size_hint] monomials (it grows past that). *)
  val create : ?size_hint:int -> unit -> t

  (** Number of ids handed out. *)
  val count : t -> int

  (** [monomial t id] is the monomial numbered [id]. *)
  val monomial : t -> int -> mono

  (** [intern t m] is [m]'s id, numbering it if it is new. *)
  val intern : t -> mono -> int

  (** [intern_mul t a b] is [intern t (mul a b)], but the product is
      built only if it is new to [t]. *)
  val intern_mul : t -> mono -> mono -> int

  (** [sort_graded t ids n] sorts the distinct ids [ids.(0 .. n-1)] into
      the graded order of their monomials ({!compare}): bucketed by
      descending degree, then radix-sorted by variables, with no
      comparison of monomials. *)
  val sort_graded : t -> int array -> int -> unit
end
