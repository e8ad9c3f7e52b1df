(* All rows live back to back in one off-heap word store: row [i] is the
   [stride] words from word [i * stride].  One allocation makes a matrix
   of any size — no per-row Bigarray, custom block or finaliser, and no
   OCaml array of rows, whose creation past 256 slots around a fresh
   block would force a minor collection.  The kernels below work on
   (store, word offset) pairs, so the elimination allocates nothing per
   row; [row] hands out a {!Bitvec.view} of the store. *)

module A1 = Bigarray.Array1

type t = { nrows : int; ncols : int; stride : int; store : Bitvec.words }

let bits_per_word = Sys.int_size

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create";
  let stride = Int.max 1 (Bitvec.words_for cols) in
  { nrows = rows; ncols = cols; stride; store = Bitvec.create_words (Int.max 1 rows * stride) }

let rows m = m.nrows
let cols m = m.ncols

let lowest_bit_index_int w =
  let rec go w i = if w land 1 = 1 then i else go (w lsr 1) (i + 1) in
  go w 0

(* ---------------- word kernels ---------------- *)

(* Bit [c] of the row at word offset [o]. *)
let bit (s : Bitvec.words) o c =
  (A1.unsafe_get s (o + (c / bits_per_word)) lsr (c mod bits_per_word)) land 1 = 1

(* Words [lo, hi) of the row at [so] XORed into the row at [d_o]. *)
let xor_words (src : Bitvec.words) so (dst : Bitvec.words) d_o lo hi =
  for w = lo to hi - 1 do
    A1.unsafe_set dst (d_o + w) (A1.unsafe_get dst (d_o + w) lxor A1.unsafe_get src (so + w))
  done

(* The lowest set bit of the row at [o] ([n] words), or -1. *)
let rec first_set_from (s : Bitvec.words) o n w =
  if w >= n then -1
  else
    let x = A1.unsafe_get s (o + w) in
    if x = 0 then first_set_from s o n (w + 1)
    else (w * bits_per_word) + lowest_bit_index_int x

let check_row m i =
  if i < 0 || i >= m.nrows then
    invalid_arg (Printf.sprintf "Matrix: row %d out of range (nrows %d)" i m.nrows)

let check_col m j = if j < 0 || j >= m.ncols then invalid_arg "Bitvec: index out of range"

let get m i j =
  check_row m i;
  check_col m j;
  bit m.store (i * m.stride) j

let set m i j b =
  check_row m i;
  check_col m j;
  let w = (i * m.stride) + (j / bits_per_word) and o = j mod bits_per_word in
  let x = A1.unsafe_get m.store w in
  A1.unsafe_set m.store w (if b then x lor (1 lsl o) else x land lnot (1 lsl o))

(* Sets bit [col.(ids.(j))] of row [r] for every [j < n]: a row given as
   monomial ids, placed through their column map, one word read-modify-
   write per bit and nothing allocated. *)
let set_row_bits m r ~col ids n =
  check_row m r;
  let o = r * m.stride in
  for j = 0 to n - 1 do
    let c = Array.unsafe_get col (Array.unsafe_get ids j) in
    if c < 0 || c >= m.ncols then invalid_arg "Matrix.set_row_bits: column out of range";
    let w = o + (c / bits_per_word) in
    A1.unsafe_set m.store w (A1.unsafe_get m.store w lor (1 lsl (c mod bits_per_word)))
  done

let row m i =
  check_row m i;
  Bitvec.view m.store ~off:(i * m.stride) ~len:m.ncols

let of_rows ~cols rows_list =
  List.iter
    (fun r ->
      if Bitvec.length r <> cols then invalid_arg "Matrix.of_rows: row length mismatch")
    rows_list;
  let m = create ~rows:(List.length rows_list) ~cols in
  List.iteri (fun i r -> Bitvec.blit ~src:r ~dst:(row m i)) rows_list;
  m

let copy m =
  let store = Bitvec.create_words (A1.dim m.store) in
  A1.blit m.store store;
  { m with store }

(* Rows are exchanged word by word: a matrix has no row array to permute,
   and an elimination swaps at most once per pivot. *)
let swap_words m i j =
  let s = m.store and oi = i * m.stride and oj = j * m.stride in
  for w = 0 to m.stride - 1 do
    let x = A1.unsafe_get s (oi + w) in
    A1.unsafe_set s (oi + w) (A1.unsafe_get s (oj + w));
    A1.unsafe_set s (oj + w) x
  done

let swap_rows m i j =
  check_row m i;
  check_row m j;
  if i <> j then swap_words m i j

let xor_rows m ~src ~dst =
  check_row m src;
  check_row m dst;
  xor_words m.store (src * m.stride) m.store (dst * m.stride) 0 m.stride

let first_set_row m i = first_set_from m.store (i * m.stride) m.stride 0

(* Bits [lo, lo + width) of every row, as ints with bit [lo] lowest.  A
   window may straddle two words: the low part comes from word
   [lo / bits_per_word] shifted down, the rest from the next word shifted
   up past it.  One call reads a whole column band, so the per-row cost
   is a load or two, not a call. *)
let windows m ~lo ~width out =
  if
    lo < 0 || width < 0 || width >= bits_per_word || lo + width > m.ncols
    || m.nrows > Array.length out
  then invalid_arg "Matrix.windows: range out of bounds";
  let w = lo / bits_per_word and o = lo mod bits_per_word in
  let mask = (1 lsl width) - 1 in
  let straddles = o + width > bits_per_word in
  let s = m.store in
  for r = 0 to m.nrows - 1 do
    let base = (r * m.stride) + w in
    let bits =
      if width = 0 then 0
      else if straddles then
        (A1.unsafe_get s base lsr o) lor (A1.unsafe_get s (base + 1) lsl (bits_per_word - o))
      else A1.unsafe_get s base lsr o
    in
    Array.unsafe_set out r (bits land mask)
  done

(* Structural RREF validity: pivot columns strictly increase, zero rows sit
   at the bottom, and every pivot column is zero outside its pivot row. *)
let is_rref m =
  let ok = ref true in
  let last_pivot = ref (-1) in
  let seen_zero = ref false in
  for i = 0 to m.nrows - 1 do
    let c = first_set_row m i in
    if c < 0 then seen_zero := true
    else begin
      if !seen_zero || c <= !last_pivot then ok := false;
      last_pivot := c;
      for r = 0 to m.nrows - 1 do
        if r <> i && bit m.store (r * m.stride) c then ok := false
      done
    end
  done;
  !ok

(* Reduce [v] by the pivot rows of an echelonised matrix; zero remainder
   means membership in the row space. *)
let in_row_space m v =
  if Bitvec.length v <> m.ncols then
    invalid_arg
      (Printf.sprintf "Matrix.in_row_space: vector length %d, matrix has %d columns"
         (Bitvec.length v) m.ncols);
  let v = Bitvec.copy v in
  for i = 0 to m.nrows - 1 do
    let c = first_set_row m i in
    if c >= 0 && Bitvec.get v c then Bitvec.xor_into ~src:(row m i) ~dst:v
  done;
  Bitvec.is_zero v

(* Self-checking hook of the audit layer (see lib/audit): when the
   environment opts in, every elimination verifies its own output.  Read
   eagerly, not lazily: eliminations run concurrently under the domain
   pool, and Lazy.force from several domains races (Lazy.RacyLazy). *)
let audit_hooks =
  match Sys.getenv_opt "BOSPHORUS_AUDIT" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let audit_rref_result name m =
  if audit_hooks && not (is_rref m) then
    failwith (name ^ ": result is not in reduced row echelon form")

(* Gauss-Jordan: for each column left to right, find a pivot row at or below
   the current pivot rank, swap it up, then clear that column in every other
   row.  O(rows * cols * words-per-row). *)
let rref m =
  let pivot_row = ref 0 in
  let col = ref 0 in
  while !pivot_row < m.nrows && !col < m.ncols do
    let c = !col in
    (* find a row >= pivot_row with a 1 in column c *)
    let rec find i =
      if i >= m.nrows then -1 else if bit m.store (i * m.stride) c then i else find (i + 1)
    in
    let i = find !pivot_row in
    if i >= 0 then begin
      if i <> !pivot_row then swap_words m i !pivot_row;
      let p = !pivot_row * m.stride in
      for r = 0 to m.nrows - 1 do
        if r <> !pivot_row && bit m.store (r * m.stride) c then
          xor_words m.store p m.store (r * m.stride) 0 m.stride
      done;
      incr pivot_row
    end;
    incr col
  done;
  audit_rref_result "Matrix.rref" m;
  !pivot_row

(* ---------------- M4RM parallel cutoff ---------------- *)

(* Work units of one trailing-update pass: every row reads [k] pivot bits
   and XORs up to a full row of words. *)
let m4rm_ops ~rows ~cols ~k = rows * (Bitvec.words_for cols + k)

(* Smallest trailing update worth dispatching.  On 2 domains a pass saves
   half its sequential time, and that must beat 4x a ~20 us pool
   round-trip (queue, wake-up, joins): 160 us of sequential work.  One
   row-word XOR measured 1.74 ns on a 2-vCPU Intel Xeon host, so the
   cutoff is about 10^5 row-words. *)
let m4rm_parallel_cutoff = 100_000

let m4rm_parallel_worthwhile ?(k = 6) ~rows ~cols ~jobs () =
  jobs > 1
  && Int.min jobs (Domain.recommended_domain_count ()) > 1
  && m4rm_ops ~rows ~cols ~k >= m4rm_parallel_cutoff

(* Words per cache panel of the blocked trailing update: the 2^k-row
   lookup table slice plus one row slice should stay resident, so target
   roughly 256 KiB of table per sweep. *)
let panel_words ~b = Int.max 64 ((1 lsl 15) / Int.max 1 (1 lsl (b - 3)))

(* Phase A's per-row step: reduce row [i] by the block's first [found]
   pivot rows [piv.(t)], in pivot order (each pivot row is clean on the
   pivots before it but may touch the ones after, so ascending order is
   required).  [win] holds every row's bits in the current block and
   [pos.(t)] is pivot [t]'s bit in that window, so the test is an int
   test and a full row XOR happens only when the window says so; the
   window is kept equal to the row's block bits. *)
let rec reduce_window m win pos piv ~found i t =
  if t < found then begin
    if (win.(i) lsr pos.(t)) land 1 = 1 then begin
      let p = piv.(t) in
      xor_words m.store (p * m.stride) m.store (i * m.stride) 0 m.stride;
      win.(i) <- win.(i) lxor win.(p)
    end;
    reduce_window m win pos piv ~found i (t + 1)
  end

(* The index in [cand] of the first candidate row (entries [0, nc), -1
   once a row became a pivot) with bit [bit] of its window set once
   reduced by the block's pivots so far, or -1.  [live] masks the window
   bits of those pivots and [bit]: a row with none of them has nothing to
   reduce and no bit to offer, so it costs one int read. *)
let rec find_pivot m win pos piv cand nc ~found ~live ~bit j =
  if j >= nc then -1
  else
    let i = cand.(j) in
    if i < 0 || win.(i) land live = 0 then
      find_pivot m win pos piv cand nc ~found ~live ~bit (j + 1)
    else begin
      reduce_window m win pos piv ~found i 0;
      if (win.(i) lsr bit) land 1 = 1 then j
      else find_pivot m win pos piv cand nc ~found ~live ~bit (j + 1)
    end

(* The rows from [r] on whose window is nonzero, ascending into [cand]
   from [k]; returns how many.  Only they can give a pivot in this block:
   phase A changes a row only by XORing pivot rows into it, and only when
   its window shares a bit with them. *)
let rec candidates win n cand r k =
  if r >= n then k
  else if win.(r) = 0 then candidates win n cand (r + 1) k
  else begin
    cand.(k) <- r;
    candidates win n cand (r + 1) (k + 1)
  end

(* The gray-table index of a row whose window is [w]: bit t is set iff
   the row has pivot t's column set. *)
let rec table_index w pos b t acc =
  if t >= b then acc
  else table_index w pos b (t + 1) (acc lor (((w lsr pos.(t)) land 1) lsl t))

(* Widest block window: one word's worth of bits. *)
let max_window = Sys.int_size - 1

(* Method of the Four Russians.  Per block of up to k pivots: find pivot
   rows (reducing each candidate row by the block's previous pivots only),
   normalise the pivot rows to identity on the pivot columns, combine
   them gray-code style into a table indexed by pivot subsets, then clear
   the block's pivot columns from every other row with one lookup + one
   XOR.

   A block starts at the current column and spans up to [max_window]
   columns; it ends after the column of its k-th pivot.  Every row's bits
   in that span are read once per block into an int window
   ([windows]); pivot search, normalisation and each row's table
   index work on the windows, which are kept equal to the rows' bits
   through every row XOR and swap.  Pivot search visits only the
   block's candidate rows (nonzero window, at or after the pivot row);
   on sparse matrices most windows are 0, so most rows cost one int read
   per block, and columns without a pivot do not end a block.  Table
   entries are built only for the pivot subsets some row needs.

   The trailing update (phase C) visits only the rows with a nonzero
   table index and is cache-blocked: the XORs sweep panel-of-words by
   panel-of-words so the lookup table slice stays hot instead of being
   evicted between rows.  With [jobs > 1] those rows are partitioned
   across the domain pool — unless the update is below
   [m4rm_parallel_cutoff] or the host has one domain, in which case it
   runs inline (jobs is ignored).  Pivot selection and table
   construction stay sequential, and the per-row updates are pure
   functions of the read-only table, so the resulting RREF is
   bit-identical to the sequential one whatever [jobs] is. *)
let rref_m4rm ?(k = 6) ?(jobs = 1) ?(poll = fun () -> ()) m =
  if k < 1 || k > 20 then invalid_arg "Matrix.rref_m4rm: k in 1..20";
  (* the pool is only obtained (and its domains only spawned) once the
     update is known to be big enough to dispatch *)
  let pool =
    if m4rm_parallel_worthwhile ~k ~rows:m.nrows ~cols:m.ncols ~jobs ()
    then Runtime.Pool.get ~jobs
    else Runtime.Pool.get ~jobs:1
  in
  let n = Int.max 1 m.nrows in
  let pivot_row = ref 0 in
  let col = ref 0 in
  (* pos.(t): the t-th pivot of the current block, as a bit of the block
     window, ascending *)
  let pos = Array.make k 0 in
  (* piv.(t): the row holding the block's t-th pivot during phase A *)
  let piv = Array.make k 0 in
  (* win.(r): row r's bits in the current block *)
  let win = Array.make n 0 in
  (* cand: the rows that can give this block a pivot *)
  let cand = Array.make n 0 in
  (* the rows phase C updates, and each one's gray-table index *)
  let hits = Array.make n 0 in
  let hit_idx = Array.make n 0 in
  let stride = m.stride in
  let n_entries = 1 lsl Int.min k (Int.max 0 m.nrows) in
  (* the gray table of pivot-row combinations, reused by every block:
     entry g is the [stride] words from [g * stride] of one store, grown
     by doubling as higher entries are first needed, and valid in the
     block numbered stamp.(g); entry 0 is the zero row *)
  let table = ref (Bitvec.create_words (Int.min n_entries 8 * stride)) in
  let stamp = Array.make n_entries 0 in
  let block = ref 0 in
  (* make table entry g, the sum of the pivot rows (from row [pr]) that
     g's bits select, valid for this block *)
  let rec ensure pr g =
    if g <> 0 && stamp.(g) <> !block then begin
      let rest = g land (g - 1) in
      ensure pr rest;
      let cap = A1.dim !table / stride in
      if g >= cap then begin
        let wider = Bitvec.create_words (Int.min n_entries (Int.max (g + 1) (2 * cap)) * stride) in
        A1.blit !table (A1.sub wider 0 (A1.dim !table));
        table := wider
      end;
      let t = !table and p = (pr + lowest_bit_index_int g) * stride in
      (* entry g = entry rest + pivot row, word by word *)
      for w = 0 to stride - 1 do
        A1.unsafe_set t ((g * stride) + w)
          (A1.unsafe_get t ((rest * stride) + w) lxor A1.unsafe_get m.store (p + w))
      done;
      stamp.(g) <- !block
    end
  in
  while !pivot_row < m.nrows && !col < m.ncols do
    (* per-block cancellation point: a raising [poll] abandons the
       half-reduced matrix, so callers must not use it afterwards *)
    poll ();
    let width = Int.min max_window (m.ncols - !col) in
    windows m ~lo:!col ~width win;
    let pr = !pivot_row in
    (* phase A: collect up to k pivots, column by column, among the rows
       at or after [pr] with a bit in the block; rows stay in place until
       the block's pivots are known *)
    let nc = candidates win m.nrows cand pr 0 in
    let found = ref 0 in
    let bit = ref 0 in
    (* the window bits of the pivots found so far *)
    let pivmask = ref 0 in
    while !found < k && !bit < width do
      if !found = nc then
        (* every candidate is a pivot: no other row at or after [pr] has
           a bit left in this block *)
        bit := width
      else begin
        let live = !pivmask lor (1 lsl !bit) in
        let j = find_pivot m win pos piv cand nc ~found:!found ~live ~bit:!bit 0 in
        if j >= 0 then begin
          pivmask := live;
          piv.(!found) <- cand.(j);
          cand.(j) <- -1;
          pos.(!found) <- !bit;
          incr found
        end;
        incr bit
      end
    done;
    (* move the pivot rows to [pr ..]: the row a swap moves out of the
       way may be a later pivot, which then lives where the earlier one
       was *)
    for t = 0 to !found - 1 do
      let src = piv.(t) and dst = pr + t in
      if src <> dst then begin
        swap_words m src dst;
        let w = win.(src) in
        win.(src) <- win.(dst);
        win.(dst) <- w;
        for u = t + 1 to !found - 1 do
          if piv.(u) = dst then piv.(u) <- src
        done
      end
    done;
    let b = !found in
    if b > 0 then begin
      (* normalise the pivot rows to identity on the pivot columns *)
      for i = 0 to b - 1 do
        for j = 0 to b - 1 do
          if i <> j && (win.(pr + i) lsr pos.(j)) land 1 = 1 then begin
            xor_words m.store ((pr + j) * stride) m.store ((pr + i) * stride) 0 stride;
            win.(pr + i) <- win.(pr + i) lxor win.(pr + j)
          end
        done
      done;
      (* every other row with a pivot bit, its table index, and the
         table entries those indices need *)
      incr block;
      let n_hits = ref 0 in
      for r = 0 to m.nrows - 1 do
        let w = win.(r) in
        if w land !pivmask <> 0 && (r < pr || r >= pr + b) then begin
          let idx = table_index w pos b 0 0 in
          ensure pr idx;
          hits.(!n_hits) <- r;
          hit_idx.(!n_hits) <- idx;
          incr n_hits
        end
      done;
      (* phase C: clear the pivot columns from those rows with one table
         XOR each, panel-of-words by panel-of-words across the rows so
         the table slice in use stays resident.  XOR is word-local, so
         sweeping panels left-to-right produces the same words as one
         full-row pass.  Each task touches only the rows of its own
         range of [hits]; the table is read-only here. *)
      let panel = panel_words ~b in
      let table = !table and store = m.store in
      let update_rows lo hi =
        let w = ref 0 in
        while !w < stride do
          let hi_w = Int.min stride (!w + panel) in
          for h = lo to hi - 1 do
            xor_words table (hit_idx.(h) * stride) store (hits.(h) * stride) !w hi_w
          done;
          w := hi_w
        done
      in
      Runtime.Pool.parallel_for pool ~lo:0 ~hi:!n_hits update_rows;
      pivot_row := pr + b
    end;
    (* the next block starts after the last column examined *)
    col := !col + !bit
  done;
  audit_rref_result "Matrix.rref_m4rm" m;
  !pivot_row

let rank m = rref (copy m)

let pp ppf m =
  for i = 0 to m.nrows - 1 do
    if i > 0 then Format.pp_print_newline ppf ();
    Bitvec.pp ppf (row m i)
  done
