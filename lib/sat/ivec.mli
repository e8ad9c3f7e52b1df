(** Growable flat [int] vector (unboxed payload, contiguous storage). *)

type t

(** The backing word store: element [i] of a vector [v] is slot [i] of
    [store v], for [i < size v]. *)
type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [create ?cap ()] is an empty vector with room for [cap] ints (default
    0: no store is allocated until the first push). *)
val create : ?cap:int -> unit -> t
val size : t -> int
val push : t -> int -> unit

(** [push2 v x y] appends two ints with a single capacity check — the shape
    of a watcher entry (clause reference, blocker literal). *)
val push2 : t -> int -> int -> unit

val get : t -> int -> int
val set : t -> int -> int -> unit

(** Unchecked accessors for hot loops; the caller maintains the bound. *)
val unsafe_get : t -> int -> int

val unsafe_set : t -> int -> int -> unit

(** [store v] is [v]'s live word store, for hot loops that read and write
    it by offset instead of calling an accessor per element (this library
    is compiled with [-opaque] in dune's default profile, so no call into
    [Ivec] is inlined).  Any growth replaces the store: re-fetch it after
    a push to [v]. *)
val store : t -> buf
val shrink : t -> int -> unit
val clear : t -> unit
val iter : (int -> unit) -> t -> unit
val filter_in_place : (int -> bool) -> t -> unit
val to_list : t -> int list
val of_list : int list -> t

(** In-place heapsort on the word store: no scratch allocation, so a
    learnt-database reduction sorts without touching the minor heap.  The
    sort is not stable; for a deterministic result the comparator must
    totally order the elements (the solver's break ties on identity). *)
val sort_in_place : (int -> int -> int) -> t -> unit

(** Deep copy sharing no storage with the original. *)
val copy : t -> t

(** [make_array n] is [n] fresh empty vectors.  Unlike
    [Array.init n (fun _ -> create ())], it never forces a minor
    collection, however large [n] is. *)
val make_array : int -> t array

(** [copy_array a] is [Array.map copy a], with no forced minor
    collection. *)
val copy_array : t array -> t array

(** [extend_array a n] is [a] followed by fresh empty vectors up to
    length [n] ([a] itself if it is that long already), with no forced
    minor collection. *)
val extend_array : t array -> int -> t array
