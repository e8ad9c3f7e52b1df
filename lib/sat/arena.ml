(* Flat clause arena: every clause of the solver lives in one growable
   off-heap word store, so BCP walks contiguous memory instead of chasing
   pointers to boxed clause records.  The words are a [Bigarray.Array1] of
   native ints (c_layout): malloc'd outside the scanned OCaml heap, so the
   GC neither scans nor moves the clause database, and loads/stores
   compile to direct memory accesses with no write barrier.

   Layout of a clause at offset (clause reference) [c]:

     data.{c}     header: n_lits lsl 3 | temp lsl 2 | deleted lsl 1 | learnt
     data.{c+1}   LBD (learnt clauses; 0 otherwise)
     data.{c+2 .. c+1+n_lits}   the literals (packed 2*var+sign)

   Clause activities live in [act], a parallel float64 Bigarray indexed by
   the same clause reference.  Deletion is a mark: the words stay in place
   (and watchers referencing them are dropped lazily during propagation)
   until {!move}-based compaction copies the live clauses into a fresh
   arena.  During compaction the old header word is overwritten with a
   negative forwarding pointer to the clause's new offset, so every
   structure holding clause references can be remapped with {!forward}. *)

module A1 = Bigarray.Array1

type cref = int

type ibuf = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type fbuf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type t = {
  mutable data : ibuf;
  mutable act : fbuf;
  mutable size : int; (* next free word *)
  mutable wasted : int; (* words owned by deleted clauses *)
}

let none : cref = -1

let make_ibuf n : ibuf =
  let b = A1.create Bigarray.int Bigarray.c_layout n in
  A1.fill b 0;
  b

let make_fbuf n : fbuf =
  let b = A1.create Bigarray.float64 Bigarray.c_layout n in
  A1.fill b 0.0;
  b

let create ?(cap = 1024) () =
  let cap = Int.max 16 cap in
  { data = make_ibuf cap; act = make_fbuf cap; size = 0; wasted = 0 }

let words t = t.size
let wasted t = t.wasted
let capacity_bytes t = 8 * (A1.dim t.data + A1.dim t.act)

let ensure t needed =
  let cap = A1.dim t.data in
  if t.size + needed > cap then begin
    let cap' = Int.max (t.size + needed) (2 * cap) in
    let data = make_ibuf cap' in
    A1.blit (A1.sub t.data 0 t.size) (A1.sub data 0 t.size);
    t.data <- data;
    let act = make_fbuf cap' in
    A1.blit (A1.sub t.act 0 t.size) (A1.sub act 0 t.size);
    t.act <- act
  end

let header t c = A1.unsafe_get t.data c
let n_lits t c = header t c lsr 3
let learnt t c = header t c land 1 = 1
let is_deleted t c = header t c land 2 = 2
let is_temp t c = header t c land 4 = 4
let lit t c i = A1.unsafe_get t.data (c + 2 + i)
let set_lit t c i p = A1.unsafe_set t.data (c + 2 + i) p
let lbd t c = A1.unsafe_get t.data (c + 1)
let set_lbd t c x = A1.unsafe_set t.data (c + 1) x
let activity t c = A1.unsafe_get t.act c
let set_activity t c a = A1.unsafe_set t.act c a

(* The live activity store itself: hot callers index it directly so the
   float traffic stays unboxed (a non-inlined cross-module [activity]
   call would box its return on every clause bump).  Invalidated by any
   growth — re-fetch per use. *)
let act_store t = t.act
let data t = t.data

let clause_words n = n + 2

let alloc t ~learnt ~temp lits =
  let n = Array.length lits in
  ensure t (clause_words n);
  let c = t.size in
  A1.unsafe_set t.data c
    ((n lsl 3) lor (if temp then 4 else 0) lor (if learnt then 1 else 0));
  A1.unsafe_set t.data (c + 1) 0;
  for i = 0 to n - 1 do
    A1.unsafe_set t.data (c + 2 + i) (Array.unsafe_get lits i)
  done;
  A1.unsafe_set t.act c 0.0;
  t.size <- t.size + clause_words n;
  c

let alloc_list t ~learnt ~temp lits = alloc t ~learnt ~temp (Array.of_list lits)

(* Append an uninitialised clause of [n] literals (zero-filled): the
   zero-allocation learning path writes the literals in place with
   {!set_lit} instead of building an intermediate array. *)
let alloc_blank t ~learnt ~temp n =
  ensure t (clause_words n);
  let c = t.size in
  A1.unsafe_set t.data c
    ((n lsl 3) lor (if temp then 4 else 0) lor (if learnt then 1 else 0));
  A1.unsafe_set t.data (c + 1) 0;
  for i = 0 to n - 1 do
    A1.unsafe_set t.data (c + 2 + i) 0
  done;
  A1.unsafe_set t.act c 0.0;
  t.size <- t.size + clause_words n;
  c

let mark_deleted t c =
  if not (is_deleted t c) then begin
    t.wasted <- t.wasted + clause_words (n_lits t c);
    A1.unsafe_set t.data c (header t c lor 2)
  end

let lits_array t c = Array.init (n_lits t c) (fun i -> lit t c i)

(* Deep copy: one blit per backing store.  The snapshot shares no memory
   with the original, so a cloned solver (portfolio worker) can mutate
   its clause database freely while the source keeps solving. *)
let snapshot t =
  let capd = Int.max 16 (A1.dim t.data) in
  let data = make_ibuf capd in
  A1.blit t.data data;
  let capa = Int.max 16 (A1.dim t.act) in
  let act = make_fbuf capa in
  A1.blit t.act act;
  { data; act; size = t.size; wasted = t.wasted }

(* ---------------- compaction ---------------- *)

let forwarded t c = A1.unsafe_get t.data c < 0
let forward t c = -1 - A1.unsafe_get t.data c

(* Copy clause [c] into [into] (clearing the deletion mark — the caller
   only moves clauses it wants live) and leave a forwarding pointer in the
   old header.  Repeated moves of the same clause return the same new
   reference. *)
let move t ~into c =
  if forwarded t c then forward t c
  else begin
    let n = n_lits t c in
    ensure into (clause_words n);
    let c' = into.size in
    A1.unsafe_set into.data c' (A1.unsafe_get t.data c land lnot 2);
    A1.unsafe_set into.data (c' + 1) (A1.unsafe_get t.data (c + 1));
    for i = 0 to n - 1 do
      A1.unsafe_set into.data (c' + 2 + i) (A1.unsafe_get t.data (c + 2 + i))
    done;
    A1.unsafe_set into.act c' (A1.unsafe_get t.act c);
    into.size <- into.size + clause_words n;
    A1.unsafe_set t.data c (-1 - c');
    c'
  end

(* All clause references in allocation order (live and deleted).  Only
   valid before any {!move}: forwarding destroys the size information the
   walk needs. *)
let crefs t =
  let acc = ref [] in
  let c = ref 0 in
  while !c < t.size do
    acc := !c :: !acc;
    c := !c + clause_words (n_lits t !c)
  done;
  List.rev !acc
