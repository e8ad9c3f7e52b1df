type t = { nrows : int; ncols : int; data : Bitvec.t array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create";
  { nrows = rows; ncols = cols; data = Array.init (Int.max 1 rows) (fun _ -> Bitvec.create cols) }

let of_rows ~cols rows_list =
  List.iter
    (fun r ->
      if Bitvec.length r <> cols then invalid_arg "Matrix.of_rows: row length mismatch")
    rows_list;
  let nrows = List.length rows_list in
  let m = create ~rows:nrows ~cols in
  List.iteri (fun i r -> m.data.(i) <- Bitvec.copy r) rows_list;
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

(* Method of the Four Russians.  Per block of <= k columns: find pivot
   rows (reducing each candidate row by the block's previous pivots only),
   normalise the pivot rows to identity on the pivot columns, tabulate all
   2^b combinations of them in gray-code order, then clear the block's
   pivot columns from every other row with one lookup + one XOR.

   The trailing update (phase C, the bulk of the work) is cache-blocked:
   each row's table index is computed up front into a flat scratch array,
   then the XORs sweep panel-of-words by panel-of-words so the lookup
   table slice stays hot instead of being evicted between rows.  With
   [jobs > 1] the update is partitioned row-wise across the domain pool —
   unless the update is below [m4rm_parallel_cutoff] or the host has one
   domain, in which case it runs inline (jobs is ignored).
   Pivot selection and table construction stay sequential, and the
   per-row updates are pure functions of the read-only table, so the
   resulting RREF is bit-identical to the sequential one whatever [jobs]
   is. *)
let rref_m4rm ?(k = 6) ?(jobs = 1) ?(poll = fun () -> ()) m =
  if k < 1 || k > 20 then invalid_arg "Matrix.rref_m4rm: k in 1..20";
  (* the pool is only obtained (and its domains only spawned) once the
     update is known to be big enough to dispatch *)
  let pool =
    if m4rm_parallel_worthwhile ~k ~rows:m.nrows ~cols:m.ncols ~jobs ()
    then Runtime.Pool.get ~jobs
    else Runtime.Pool.get ~jobs:1
  in
  let pivot_row = ref 0 in
  let col = ref 0 in
  (* pivots.(t) is the t-th pivot column of the current block, ascending;
     an int array rather than a list so that phase A's reduction finds a
     pivot's row offset in O(1) instead of scanning a column list *)
  let pivots = Array.make k 0 in
  (* row_idx.(r): gray-table index of row r for the current block,
     precomputed so the panel sweep can clear pivot columns as it goes *)
  let row_idx = Array.make (Int.max 1 m.nrows) 0 in
  let nwords = Bitvec.n_words m.data.(0) in
  while !pivot_row < m.nrows && !col < m.ncols do
    (* per-block cancellation point: a raising [poll] abandons the
       half-reduced matrix, so callers must not use it afterwards *)
    poll ();
    let block_end = Int.min m.ncols (!col + k) in
    (* phase A: collect pivots for columns [!col, block_end) *)
    let found = ref 0 in
    let c = ref !col in
    while !c < block_end do
      (* find a row at or below pivot_row + found with a 1 in column !c
         after reduction by the pivots already found in this block *)
      let rec search i =
        if i >= m.nrows then None
        else begin
          (* reduce the candidate by this block's pivot rows, in pivot
             order: each pivot row is clean on the pivots before it but may
             touch the ones after, so ascending order is required *)
          for t = 0 to !found - 1 do
            if Bitvec.get m.data.(i) pivots.(t) then
              Bitvec.xor_into ~src:m.data.(!pivot_row + t) ~dst:m.data.(i)
          done;
          if Bitvec.get m.data.(i) !c then Some i else search (i + 1)
        end
      in
      (match search (!pivot_row + !found) with
      | Some i ->
          if i <> !pivot_row + !found then swap_rows m i (!pivot_row + !found);
          pivots.(!found) <- !c;
          incr found
      | None -> ());
      incr c
    done;
    let b = !found in
    if b = 0 then col := block_end
    else begin
      let pr = !pivot_row in
      (* normalise the pivot rows to identity on the pivot columns *)
      for i = 0 to b - 1 do
        for j = 0 to b - 1 do
          if i <> j && Bitvec.get m.data.(pr + i) pivots.(j) then
            Bitvec.xor_into ~src:m.data.(pr + j) ~dst:m.data.(pr + i)
        done
      done;
      (* gray-code table of the 2^b combinations *)
      let table = Array.make (1 lsl b) (Bitvec.create m.ncols) in
      for g = 1 to (1 lsl b) - 1 do
        let low = lowest_bit_index_int g in
        let v = Bitvec.copy table.(g land (g - 1)) in
        Bitvec.xor_into ~src:m.data.(pr + low) ~dst:v;
        table.(g) <- v
      done;
      (* phase C: clear the pivot columns everywhere else with one table
         lookup + one XOR per row, cache-blocked.  First pass records each
         row's table index (reading pivot-column bits before anything
         clears them), then the XORs run panel-of-words by panel-of-words
         across the rows so the table slice in use stays resident.  XOR is
         word-local, so sweeping panels left-to-right produces the same
         words as one full-row pass.  Rows are touched only by their own
         range's task; the table and pivots are read-only here. *)
      let panel = panel_words ~b in
      let update_rows lo hi =
        for r = lo to hi - 1 do
          if r < pr || r >= pr + b then begin
            let idx = ref 0 in
            for j = 0 to b - 1 do
              if Bitvec.get m.data.(r) pivots.(j) then idx := !idx lor (1 lsl j)
            done;
            row_idx.(r) <- !idx
          end
          else row_idx.(r) <- 0
        done;
        let w = ref 0 in
        while !w < nwords do
          let hi_w = Int.min nwords (!w + panel) in
          for r = lo to hi - 1 do
            let idx = row_idx.(r) in
            if idx <> 0 then
              Bitvec.xor_into_range ~src:table.(idx) ~dst:m.data.(r)
                ~lo_word:!w ~hi_word:hi_w
          done;
          w := hi_w
        done
      in
      ((Runtime.Pool.parallel_for pool ~lo:0 ~hi:m.nrows update_rows)
      [@check.allow
        "domain-capture"
          "each task writes only the row_idx slots in its own [lo, hi) row \
           range; ranges are disjoint, so no two domains touch the same \
           element"]);
      pivot_row := pr + b;
      col := block_end
    end
  done;
  audit_rref_result "Matrix.rref_m4rm" m;
  !pivot_row

let rank m = rref (copy m)

let nonzero_rows m =
  let acc = ref [] in
  for i = m.nrows - 1 downto 0 do
    if not (Bitvec.is_zero m.data.(i)) then acc := Bitvec.copy m.data.(i) :: !acc
  done;
  !acc

let pp ppf m =
  for i = 0 to m.nrows - 1 do
    if i > 0 then Format.pp_print_newline ppf ();
    Bitvec.pp ppf m.data.(i)
  done
