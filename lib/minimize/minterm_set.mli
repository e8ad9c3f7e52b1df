(** Sets of minterms over at most 8 variables, the working sets of the
    minimiser's kernels.

    A set is 256 bits held as {!words} 32-bit words of an [int array],
    starting at a word offset, so a table of sets is one flat array:
    minterm [m] is bit [m land 31] of word [m lsr 5].  Every operation
    takes the array and the offset of each set it reads or writes and
    allocates nothing.  Offsets and minterms are not checked: every set
    named must lie wholly inside its array, and every minterm below
    256. *)

(** Words per set: 8. *)
val words : int

(** [create n] is a zeroed table of [n] sets (set [i] at offset
    [i * words]). *)
val create : int -> int array

val clear : int array -> int -> unit

(** [add s o m] puts minterm [m] (in [0, 256)) into the set. *)
val add : int array -> int -> int -> unit

val is_empty : int array -> int -> bool
val disjoint : int array -> int -> int array -> int -> bool

(** [subset a ao b bo]: every member of [a] is in [b]. *)
val subset : int array -> int -> int array -> int -> bool

(** Number of common members. *)
val inter_cardinal : int array -> int -> int array -> int -> int

(** [copy s so d do] overwrites [d] with [s]. *)
val copy : int array -> int -> int array -> int -> unit

(** [inter_into d do s so], [diff_into], [union_into], [xor_into]: [d]
    becomes [d] and / minus / or / xor [s]. *)
val inter_into : int array -> int -> int array -> int -> unit

val diff_into : int array -> int -> int array -> int -> unit
val union_into : int array -> int -> int array -> int -> unit
val xor_into : int array -> int -> int array -> int -> unit

(** [diff3 d do a ao b bo]: [d] becomes [a] minus [b]. *)
val diff3 : int array -> int -> int array -> int -> int array -> int -> unit

(** [union_inter_into d do a ao b bo]: [d] becomes [d] or ([a] and [b]). *)
val union_inter_into : int array -> int -> int array -> int -> int array -> int -> unit

(** [universe d do ~nvars]: [d] becomes all [2^nvars] minterms. *)
val universe : int array -> int -> nvars:int -> unit

(** [inter_bit d do b v] keeps the members whose bit [b] is [v] (0 or 1). *)
val inter_bit : int array -> int -> int -> int -> unit

(** [cube_into d do ~nvars ~mask ~value]: [d] becomes the minterms [m <
    2^nvars] with [m land mask = value] ([mask] below [2^8]). *)
val cube_into : int array -> int -> nvars:int -> mask:int -> value:int -> unit

(** [flip_inter d do s so b]: [d] becomes the minterms [m] with both [m]
    and [m lxor (1 lsl b)] in [s]. *)
val flip_inter : int array -> int -> int array -> int -> int -> unit

(** [next s o m] is the smallest member [>= m], or [-1]. *)
val next : int array -> int -> int -> int

(** [first_inter a ao b bo] is the smallest common member, or [-1]. *)
val first_inter : int array -> int -> int array -> int -> int

(** Set bits of a 32-bit word. *)
val popcount : int -> int
