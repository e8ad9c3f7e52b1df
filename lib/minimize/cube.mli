(** Cubes (product terms / implicants) over up to [Sys.int_size - 1]
    Boolean variables.

    A cube fixes some variables to constants and leaves the rest free:
    [mask] has a 1-bit for every fixed variable, [value] gives the fixed
    polarity (bits outside [mask] must be 0). *)

type t = private { mask : int; value : int }

(** [make ~mask ~value] builds a cube.
    Raises [Invalid_argument] if [value] has bits outside [mask]. *)
val make : mask:int -> value:int -> t

(** [covers c m] is [true] iff minterm [m] lies in cube [c]. *)
val covers : t -> int -> bool

(** [literals ~nvars c] lists the fixed (variable, polarity) pairs. *)
val literals : nvars:int -> t -> (int * bool) list

(** Number of fixed variables. *)
val n_fixed : t -> int

(** [minterms ~nvars c] enumerates the minterms covered by [c]
    (2^(free variables) of them). *)
val minterms : nvars:int -> t -> int list

val equal : t -> t -> bool
val compare : t -> t -> int

(** Prints as e.g. [x0 !x2 x5] ([-] for free variables omitted). *)
val pp : nvars:int -> Format.formatter -> t -> unit
