(** A mutable system of Boolean polynomial equations with occurrence lists.

    This is the "master copy" data structure of Section III-B: a list of
    polynomials plus, for each variable, the list of polynomials it occurs
    in, so that propagation touches only the equations a variable appears in.
    Polynomials are identified by stable integer ids; removing one leaves a
    tombstone, so ids stay valid.  Ids are never reused, so each variable's
    occurrence list is a flat array of ids kept in ascending order by
    appending; ids of removed polynomials are dropped from it lazily.  Duplicate polynomials are refused by
    {!add}, keeping the system a set. *)

type t

(** A stable handle on a polynomial inside a system. *)
type id = int

(** [create polys] builds a system from initial polynomials (duplicates and
    zero polynomials are dropped). *)
val create : Poly.t list -> t

(** [copy t] is an independent deep copy. *)
val copy : t -> t

(** Number of live (non-removed, non-zero) polynomials. *)
val size : t -> int

(** One more than the largest variable index mentioned, or 0. *)
val nvars : t -> int

(** [fresh_var t] allocates a variable index unused by the system so far
    (monotonically increasing across calls). *)
val fresh_var : t -> int

(** [add t p] inserts [p] unless it is zero or already present; returns the
    id if inserted. *)
val add : t -> Poly.t -> id option

(** [mem t p] is [true] iff an equal polynomial is live in [t]. *)
val mem : t -> Poly.t -> bool

(** [remove t id] deletes the polynomial with this id (no-op if already
    removed). *)
val remove : t -> id -> unit

(** [replace t id p] removes [id] and inserts [p] (unless zero/duplicate),
    returning the new id if inserted. *)
val replace : t -> id -> Poly.t -> id option

(** [find t id] is the live polynomial with this id, if any. *)
val find : t -> id -> Poly.t option

(** [occurrences t x] lists ids of live polynomials containing variable [x],
    in ascending order. *)
val occurrences : t -> int -> id list

(** [occurrence_count t x] is [List.length (occurrences t x)] in O(1): the
    count is maintained incrementally so variable-selection heuristics
    (ElimLin's least-occurring-variable rule) need not materialise the
    occurrence list per candidate. *)
val occurrence_count : t -> int -> int

(** [iter t f] applies [f id poly] to every live polynomial. *)
val iter : t -> (id -> Poly.t -> unit) -> unit

(** Live polynomials in ascending id order. *)
val to_list : t -> Poly.t list

(** [has_contradiction t] is [true] iff the polynomial 1 (i.e. 1 = 0) is in
    the system. *)
val has_contradiction : t -> bool

val pp : Format.formatter -> t -> unit
