(** Dense ids for int arrays.

    Each distinct array added gets the next id (0, 1, 2, ...).  Lookups
    take a prefix of a scratch array, so a caller can probe for an array
    before building it.  Open addressing with linear probing; a table is
    meant for one call on one domain and is not thread-safe.  It backs
    {!Monomial.Ids} (a monomial is an array of variables) and XL's set of
    expanded rows (a row is an array of monomial ids). *)

type t

(** [create ?size_hint ()] is an empty table sized for about [size_hint]
    arrays (it grows past that). *)
val create : ?size_hint:int -> unit -> t

(** Number of ids handed out. *)
val count : t -> int

(** [get t id] is the array numbered [id]. *)
val get : t -> int -> int array

(** [store t] is the live id -> array store: entries [0 .. count t - 1]
    are the arrays, for allocation-free reads by id.  An {!insert} may
    replace it; fetch it again after one. *)
val store : t -> int array array

(** [slot t a n] is the slot of the stored array equal to [a.(0 .. n-1)],
    or of the empty place where it belongs.  Allocates nothing. *)
val slot : t -> int array -> int -> int

(** [id_at t s] is the id stored at slot [s], or [-1] if it is empty. *)
val id_at : t -> int -> int

(** [insert t s a] stores [a] at the empty slot [s] that {!slot} returned
    for it (with no insertion in between) and returns its new id.  [a]
    must not be mutated afterwards. *)
val insert : t -> int -> int array -> int
