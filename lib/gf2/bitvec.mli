(** Packed bit vectors over GF(2).

    A [Bitvec.t] is a fixed-length vector of bits stored [Sys.int_size] bits
    per native word.  It is the row representation used by {!Matrix} and the
    hot data structure of XL and ElimLin, so the mutating operations
    ([xor_into], [set]) are exposed alongside the pure ones. *)

type t

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

(** [windows rows ~n ~lo ~width out] stores in [out.(r)], for each
    [r < n], bits [lo, lo + width) of [rows.(r)] packed into an int, bit
    [lo] as bit 0 — one or two word reads per row whether or not the
    range straddles a word boundary.  Requires [0 <= width < Sys.int_size],
    [0 <= lo], [lo + width] within every row read, and [n] within both
    arrays; raises [Invalid_argument] otherwise. *)
val windows : t array -> n:int -> lo:int -> width:int -> int array -> unit

(** [xor_into ~src ~dst] updates [dst] to [dst XOR src].  The two vectors
    must have the same length. *)
val xor_into : src:t -> dst:t -> unit

(** [xor_into_range ~src ~dst ~lo_word ~hi_word] XORs only words
    [lo_word, hi_word) of the underlying store (clipped to its actual
    size) — the primitive behind cache-blocked matrix panel updates.
    Same-length requirement as {!xor_into}. *)
val xor_into_range : src:t -> dst:t -> lo_word:int -> hi_word:int -> unit

(** Number of backing words ([Sys.int_size] bits each). *)
val n_words : t -> int

(** [words_for n] is the number of backing words a vector of [n] bits
    occupies — the work unit of the M4RM parallel cutoff. *)
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
