type t = { nrows : int; ncols : int; data : Bitvec.t array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create";
  { nrows = rows; ncols = cols; data = Array.init (Int.max 1 rows) (fun _ -> Bitvec.create cols) }

let of_rows ~cols rows_list =
  List.iter
    (fun r ->
      if Bitvec.length r <> cols then invalid_arg "Matrix.of_rows: row length mismatch")
    rows_list;
  let m = create ~rows:(List.length rows_list) ~cols in
  List.iteri (fun i r -> Bitvec.blit ~src:r ~dst:m.data.(i)) rows_list;
  m

let rows m = m.nrows
let cols m = m.ncols

let lowest_bit_index_int w =
  let rec go w i = if w land 1 = 1 then i else go (w lsr 1) (i + 1) in
  go w 0

let check_row m i =
  if i < 0 || i >= m.nrows then
    invalid_arg (Printf.sprintf "Matrix: row %d out of range (nrows %d)" i m.nrows)

let get m i j =
  check_row m i;
  Bitvec.get m.data.(i) j

let set m i j b =
  check_row m i;
  Bitvec.set m.data.(i) j b

let row m i =
  check_row m i;
  m.data.(i)

let copy m = { m with data = Array.map Bitvec.copy m.data }

let swap_rows m i j =
  check_row m i;
  check_row m j;
  let t = m.data.(i) in
  m.data.(i) <- m.data.(j);
  m.data.(j) <- t

let xor_rows m ~src ~dst =
  check_row m src;
  check_row m dst;
  Bitvec.xor_into ~src:m.data.(src) ~dst:m.data.(dst)

(* Structural RREF validity: pivot columns strictly increase, zero rows sit
   at the bottom, and every pivot column is zero outside its pivot row. *)
let is_rref m =
  let ok = ref true in
  let last_pivot = ref (-1) in
  let seen_zero = ref false in
  for i = 0 to m.nrows - 1 do
    match Bitvec.first_set m.data.(i) with
    | None -> seen_zero := true
    | Some c ->
        if !seen_zero || c <= !last_pivot then ok := false;
        last_pivot := c;
        for r = 0 to m.nrows - 1 do
          if r <> i && Bitvec.get m.data.(r) c then ok := false
        done
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
    match Bitvec.first_set m.data.(i) with
    | Some c when Bitvec.get v c -> Bitvec.xor_into ~src:m.data.(i) ~dst:v
    | Some _ | None -> ()
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
      if i >= m.nrows then None else if Bitvec.get m.data.(i) c then Some i else find (i + 1)
    in
    (match find !pivot_row with
    | None -> ()
    | Some i ->
        if i <> !pivot_row then swap_rows m i !pivot_row;
        let p = m.data.(!pivot_row) in
        for r = 0 to m.nrows - 1 do
          if r <> !pivot_row && Bitvec.get m.data.(r) c then
            Bitvec.xor_into ~src:p ~dst:m.data.(r)
        done;
        incr pivot_row);
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
   pivot rows, in pivot order (each pivot row is clean on the pivots
   before it but may touch the ones after, so ascending order is
   required).  [win] holds every row's bits in the current block and
   [pos.(t)] is pivot [t]'s bit in that window, so the test is an int
   test and a full row XOR happens only when the window says so; the
   window is kept equal to the row's block bits. *)
let rec reduce_window m win pos ~pr ~found i t =
  if t < found then begin
    if (win.(i) lsr pos.(t)) land 1 = 1 then begin
      Bitvec.xor_into ~src:m.data.(pr + t) ~dst:m.data.(i);
      win.(i) <- win.(i) lxor win.(pr + t)
    end;
    reduce_window m win pos ~pr ~found i (t + 1)
  end

(* The first row at or after [i] with bit [bit] of its window set once
   reduced by the block's pivots so far, or -1.  [live] masks the window
   bits of those pivots and [bit]: a row with none of them has nothing to
   reduce and no bit to offer, so it costs one int read. *)
let rec find_pivot m win pos ~pr ~found ~live ~bit i =
  if i >= m.nrows then -1
  else if win.(i) land live = 0 then find_pivot m win pos ~pr ~found ~live ~bit (i + 1)
  else begin
    reduce_window m win pos ~pr ~found i 0;
    if (win.(i) lsr bit) land 1 = 1 then i
    else find_pivot m win pos ~pr ~found ~live ~bit (i + 1)
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
   ([Bitvec.windows]); pivot search, normalisation and each row's table
   index work on the windows, which are kept equal to the rows' bits
   through every row XOR and swap.  On sparse matrices most windows are
   0, so such a row costs one int read per column of pivot search and
   nothing else, and columns without a pivot do not end a block.  Table
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
  (* win.(r): row r's bits in the current block *)
  let win = Array.make n 0 in
  (* the rows phase C updates, and each one's gray-table index *)
  let hits = Array.make n 0 in
  let hit_idx = Array.make n 0 in
  (* gray table of pivot-row combinations, reused by every block: rows
     allocated on first use, entry g valid in the block numbered
     stamp.(g); table.(0) is the zero row *)
  let table = Array.make (1 lsl Int.min k (Int.max 0 m.nrows)) (Bitvec.create m.ncols) in
  let stamp = Array.make (Array.length table) 0 in
  let allocated = ref 1 in
  let block = ref 0 in
  (* make table entry g, the sum of the pivot rows (from row [pr]) that
     g's bits select, valid for this block *)
  let rec ensure pr g =
    if g <> 0 && stamp.(g) <> !block then begin
      let rest = g land (g - 1) in
      ensure pr rest;
      if g >= !allocated then begin
        for h = !allocated to g do
          table.(h) <- Bitvec.create m.ncols
        done;
        allocated := g + 1
      end;
      Bitvec.blit ~src:table.(rest) ~dst:table.(g);
      Bitvec.xor_into ~src:m.data.(pr + lowest_bit_index_int g) ~dst:table.(g);
      stamp.(g) <- !block
    end
  in
  let nwords = Bitvec.n_words m.data.(0) in
  while !pivot_row < m.nrows && !col < m.ncols do
    (* per-block cancellation point: a raising [poll] abandons the
       half-reduced matrix, so callers must not use it afterwards *)
    poll ();
    let width = Int.min max_window (m.ncols - !col) in
    Bitvec.windows m.data ~n:m.nrows ~lo:!col ~width win;
    let pr = !pivot_row in
    (* phase A: collect up to k pivots, column by column *)
    let found = ref 0 in
    let bit = ref 0 in
    (* the window bits of the pivots found so far *)
    let pivmask = ref 0 in
    while !found < k && !bit < width && pr + !found < m.nrows do
      let live = !pivmask lor (1 lsl !bit) in
      let i = find_pivot m win pos ~pr ~found:!found ~live ~bit:!bit (pr + !found) in
      if i >= 0 then begin
        pivmask := live;
        let dst = pr + !found in
        if i <> dst then begin
          swap_rows m i dst;
          let w = win.(i) in
          win.(i) <- win.(dst);
          win.(dst) <- w
        end;
        pos.(!found) <- !bit;
        incr found
      end;
      incr bit
    done;
    let b = !found in
    if b > 0 then begin
      (* normalise the pivot rows to identity on the pivot columns *)
      for i = 0 to b - 1 do
        for j = 0 to b - 1 do
          if i <> j && (win.(pr + i) lsr pos.(j)) land 1 = 1 then begin
            Bitvec.xor_into ~src:m.data.(pr + j) ~dst:m.data.(pr + i);
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
      let update_rows lo hi =
        let w = ref 0 in
        while !w < nwords do
          let hi_w = Int.min nwords (!w + panel) in
          for h = lo to hi - 1 do
            Bitvec.xor_into_range ~src:table.(hit_idx.(h)) ~dst:m.data.(hits.(h))
              ~lo_word:!w ~hi_word:hi_w
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
    Bitvec.pp ppf m.data.(i)
  done
