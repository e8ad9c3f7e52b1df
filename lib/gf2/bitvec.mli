(** Packed bit vectors over GF(2).

    A [Bitvec.t] is a fixed-length vector of bits stored [Sys.int_size] bits
    per native word.  It is the row representation used by {!Matrix} and the
    hot data structure of XL and ElimLin, so the mutating operations
    ([xor_into], [set]) are exposed alongside the pure ones.

    A vector is a view of a word store: {!create} gives it a store of its
    own, {!view} lays it over part of a store that other vectors share.
    Writes through a view write the store. *)

type t

(** An off-heap word store: [Sys.int_size] bits per element. *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [create_words n] is a zeroed store of [n] words, one allocation. *)
val create_words : int -> words

(** [view words ~off ~len] is the [len]-bit vector held in the
    [max 1 (words_for len)] words of [words] from word [off] on.  Raises
    [Invalid_argument] if they do not fit. *)
val view : words -> off:int -> len:int -> t

(** [create n] is a vector of [n] zero bits. Raises [Invalid_argument] if
    [n < 0]. *)
val create : int -> t

(** Number of bits in the vector. *)
val length : t -> int

(** [get v i] is bit [i]. Raises [Invalid_argument] if out of range. *)
val get : t -> int -> bool

(** [set v i b] sets bit [i] to [b]. *)
val set : t -> int -> bool -> unit

(** [flip v i] toggles bit [i]. *)
val flip : t -> int -> unit

(** [copy v] is an independent copy of [v]. *)
val copy : t -> t

(** [blit ~src ~dst] overwrites [dst] with the bits of [src].  The two
    vectors must have the same length. *)
val blit : src:t -> dst:t -> unit

(** [xor_into ~src ~dst] updates [dst] to [dst XOR src].  The two vectors
    must have the same length. *)
val xor_into : src:t -> dst:t -> unit

(** [words_for n] is the number of backing words a vector of [n] bits
    occupies. *)
val words_for : int -> int

(** [is_zero v] is [true] iff every bit is 0. *)
val is_zero : t -> bool

(** [first_set v] is the index of the lowest set bit, or [None]. *)
val first_set : t -> int option

(** [popcount v] is the number of set bits. *)
val popcount : t -> int

(** [equal a b] is structural equality (same length, same bits). *)
val equal : t -> t -> bool

(** [iter_set v f] applies [f] to the index of every set bit, ascending. *)
val iter_set : t -> (int -> unit) -> unit

(** [fold_set v init f] folds [f] over indices of set bits, ascending. *)
val fold_set : t -> 'a -> ('a -> int -> 'a) -> 'a

(** [of_list n idxs] is the [n]-bit vector with exactly the bits in [idxs]
    set (duplicates toggle, matching GF(2) addition of unit vectors). *)
val of_list : int -> int list -> t

(** [to_list v] is the ascending list of set-bit indices. *)
val to_list : t -> int list

(** [pp] prints as a 0/1 string, least index first. *)
val pp : Format.formatter -> t -> unit
