(** Flat clause arena.

    All clause literals live in one growable off-heap [Bigarray] word
    store with a two-word header (size, learnt/deleted/temporary flags,
    LBD); clause activities live in a parallel float64 [Bigarray].  The
    backing memory is malloc'd outside the scanned OCaml heap, so the GC
    neither scans nor moves the clause database.  Clauses are addressed by
    their word offset ({!cref}), so watcher lists and reason references
    are plain ints.  Deletion marks the header; the space is reclaimed by
    {!move}-based compaction, which leaves forwarding pointers so holders
    of clause references can remap them with {!forward}. *)

type cref = int

type t

(** The null clause reference (no reason). *)
val none : cref

val create : ?cap:int -> unit -> t

(** Words allocated (high-water offset). *)
val words : t -> int

(** Words owned by deleted clauses, reclaimable by compaction. *)
val wasted : t -> int

(** Backing-store footprint of the arena in bytes. *)
val capacity_bytes : t -> int

(** [alloc t ~learnt ~temp lits] appends a clause, returning its
    reference.  [temp] marks transient reason clauses (XOR propagation)
    that are never attached to watch lists. *)
val alloc : t -> learnt:bool -> temp:bool -> int array -> cref

val alloc_list : t -> learnt:bool -> temp:bool -> int list -> cref

(** [alloc_blank t ~learnt ~temp n] appends a clause of [n] zero literals
    to be filled in place with {!set_lit} — the allocation-free learning
    path writes straight from its scratch vector instead of materialising
    an intermediate array. *)
val alloc_blank : t -> learnt:bool -> temp:bool -> int -> cref
val n_lits : t -> cref -> int
val learnt : t -> cref -> bool
val is_deleted : t -> cref -> bool
val is_temp : t -> cref -> bool
val lit : t -> cref -> int -> int
val set_lit : t -> cref -> int -> int -> unit
val lbd : t -> cref -> int
val set_lbd : t -> cref -> int -> unit
val activity : t -> cref -> float
val set_activity : t -> cref -> float -> unit

(** The live word store, for hot loops that read clause words by offset
    instead of calling {!lit}/{!n_lits}/{!is_deleted} per element (this
    library is compiled with [-opaque] in dune's default profile, so no
    call into [Arena] is inlined).  Clause [c]'s header is word [c]
    ([n_lits lsl 3 lor temp lsl 2 lor deleted lsl 1 lor learnt]), its LBD
    word [c+1] and its literal [i] word [c+2+i].  Invalidated by any
    clause allocation that grows the arena, like {!act_store}. *)
val data : t -> (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** The live float64 activity store, indexed by {!cref} — hot paths read
    and write it directly so float traffic stays unboxed across the
    module boundary.  Invalidated by any clause allocation that grows the
    arena: re-fetch per use, never cache across an [alloc]. *)
val act_store : t -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Mark a clause deleted (idempotent); watchers drop it lazily. *)
val mark_deleted : t -> cref -> unit

(** [snapshot t] is a deep copy sharing no backing memory with [t]: all
    clause references remain valid in the copy.  One blit per store —
    this is how a portfolio clones its workers from one immutable CNF
    snapshot without re-running clause addition per worker. *)
val snapshot : t -> t

(** Fresh copy of the clause's literals. *)
val lits_array : t -> cref -> int array

(** [move t ~into c] copies clause [c] into arena [into], clearing its
    deletion mark, and overwrites the old header with a forwarding
    pointer; moving the same clause again returns the same new
    reference. *)
val move : t -> into:t -> cref -> cref

val forwarded : t -> cref -> bool

(** New offset of a clause previously {!move}d out. *)
val forward : t -> cref -> cref

(** Every clause reference in allocation order; only valid before any
    {!move}. *)
val crefs : t -> cref list
