(* Incremental Gauss-Jordan parity propagation: a watched bitmatrix of XOR
   rows over solver variables.  See parity.mli for the protocol.  All row
   storage is off-heap (Bigarray, kind int); the in-search scan
   ([scan_begin]/[scan_step] and helpers) is allocation-free and must stay
   so — it runs at every BCP fixpoint and is covered by check.hotpaths. *)

module A1 = Bigarray.Array1

type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

let bits = Sys.int_size

let make_iarr n x : iarr =
  let b = A1.create Bigarray.int Bigarray.c_layout (Int.max 1 n) in
  A1.fill b x;
  b

let grow_iarr (old : iarr) n x : iarr =
  let b = make_iarr n x in
  A1.blit old (A1.sub b 0 (A1.dim old));
  b

let copy_iarr (a : iarr) : iarr =
  let b = A1.create Bigarray.int Bigarray.c_layout (A1.dim a) in
  A1.blit a b;
  b

(* Assignment codes shared with [Solver] (assigns : iarr there too). *)
let code_true = 0
let code_unknown = 2

(* Scan events. *)
let ev_done = 0
let ev_unit = 1
let ev_conflict = 2

type t = {
  mutable cols : int;  (* valid columns: solver variables 0..cols-1 *)
  mutable words : int;  (* words per row in [mat] *)
  mutable nrows : int;  (* row slots in use (live or retired) *)
  mutable n_live : int;
  mutable mat : iarr;  (* row-major bitmatrix, capacity rows * words *)
  mutable rhs : iarr;  (* row -> 0/1 right-hand side *)
  mutable live : iarr;  (* row -> 0/1 *)
  mutable w0 : iarr;  (* row -> first watched column *)
  mutable w1 : iarr;  (* row -> second watched column *)
  mutable watch : Ivec.t array;  (* column -> rows watching it *)
  units : Ivec.t;  (* packed literals implied by the last gauss *)
  mutable dirty : bool;  (* rows added since the last gauss *)
  (* in-search scan cursor + event out-parameters *)
  mutable cur_var : int;
  mutable cur_read : int;
  mutable cur_write : int;
  mutable ev_row : int;
  mutable ev_var : int;
  mutable ev_val : int;
}

let words_for c = Int.max 1 ((c + bits - 1) / bits)

let create ~cols () =
  let cols = Int.max 1 cols in
  {
    cols;
    words = words_for cols;
    nrows = 0;
    n_live = 0;
    mat = make_iarr (8 * words_for cols) 0;
    rhs = make_iarr 8 0;
    live = make_iarr 8 0;
    w0 = make_iarr 8 (-1);
    w1 = make_iarr 8 (-1);
    watch = Ivec.make_array cols;
    units = Ivec.create ~cap:4 ();
    dirty = false;
    cur_var = -1;
    cur_read = 0;
    cur_write = 0;
    ev_row = -1;
    ev_var = -1;
    ev_val = 0;
  }

let rows_cap t = A1.dim t.rhs

let ensure_cols t n =
  if n > t.cols then begin
    let old_watch = t.watch in
    t.watch <- Ivec.extend_array old_watch n;
    let new_words = words_for n in
    if new_words > t.words then begin
      let mat = make_iarr (rows_cap t * new_words) 0 in
      for r = 0 to t.nrows - 1 do
        for w = 0 to t.words - 1 do
          A1.unsafe_set mat ((r * new_words) + w) (A1.unsafe_get t.mat ((r * t.words) + w))
        done
      done;
      t.mat <- mat;
      t.words <- new_words
    end;
    t.cols <- n
  end

let n_live t = t.n_live
let dirty t = t.dirty
let event_row t = t.ev_row
let implied_var t = t.ev_var
let implied_val t = t.ev_val = 1
let row_rhs t r = A1.unsafe_get t.rhs r = 1
let n_units t = Ivec.size t.units
let unit_lit t i = Ivec.get t.units i

(* Lowest set bit index of a nonzero word. *)
let rec word_ntz w i = if w land 1 = 1 then i else word_ntz (w lsr 1) (i + 1)

let rec scan_words_from (mat : iarr) base words from i =
  if i >= words then -1
  else
    let x = A1.unsafe_get mat (base + i) in
    let x = if i * bits < from then x land ((-1) lsl (from - (i * bits))) else x in
    if x = 0 then scan_words_from mat base words from (i + 1)
    else (i * bits) + word_ntz x 0

(* Next set column of row [r] at or after [from], or -1. *)
let row_next_col t r ~from =
  if from >= t.cols then -1
  else scan_words_from t.mat (r * t.words) t.words from (from / bits)

let get_bit t r c =
  (A1.unsafe_get t.mat ((r * t.words) + (c / bits)) lsr (c mod bits)) land 1 = 1

let set_bit t r c =
  let i = (r * t.words) + (c / bits) in
  A1.unsafe_set t.mat i (A1.unsafe_get t.mat i lor (1 lsl (c mod bits)))

let clear_bit t r c =
  let i = (r * t.words) + (c / bits) in
  A1.unsafe_set t.mat i (A1.unsafe_get t.mat i land lnot (1 lsl (c mod bits)))

let row_popcount t r =
  let base = r * t.words in
  let n = ref 0 in
  for w = 0 to t.words - 1 do
    let x = ref (A1.unsafe_get t.mat (base + w)) in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr n
    done
  done;
  !n

let grow_rows t =
  let cap = rows_cap t in
  let cap' = 2 * cap in
  t.mat <- grow_iarr t.mat (cap' * t.words) 0;
  t.rhs <- grow_iarr t.rhs cap' 0;
  t.live <- grow_iarr t.live cap' 0;
  t.w0 <- grow_iarr t.w0 cap' (-1);
  t.w1 <- grow_iarr t.w1 cap' (-1)

let add_row t ~vars ~parity =
  (match vars with
  | _ :: _ :: _ -> ()
  | _ -> invalid_arg "Parity.add_row: fewer than two variables");
  if t.nrows = rows_cap t then grow_rows t;
  let r = t.nrows in
  t.nrows <- r + 1;
  for w = 0 to t.words - 1 do
    A1.unsafe_set t.mat ((r * t.words) + w) 0
  done;
  List.iter
    (fun v ->
      if v < 0 || v >= t.cols then invalid_arg "Parity.add_row: variable out of range";
      if get_bit t r v then invalid_arg "Parity.add_row: duplicate variable";
      set_bit t r v)
    vars;
  A1.unsafe_set t.rhs r (if parity then 1 else 0);
  A1.unsafe_set t.live r 1;
  (match vars with
  | a :: b :: _ ->
      A1.unsafe_set t.w0 r a;
      A1.unsafe_set t.w1 r b;
      Ivec.push t.watch.(a) r;
      Ivec.push t.watch.(b) r
  | _ -> assert false);
  t.n_live <- t.n_live + 1;
  t.dirty <- true

(* ------------------------------------------------------------------ *)
(* In-search scan                                                     *)
(* ------------------------------------------------------------------ *)

(* Find an unassigned set column of row [r] other than [other], starting
   at [c]; -1 if none.  [other]'s assignment status is irrelevant here —
   it is the row's other watch and stays watched. *)
let rec find_watch t (assigns : iarr) r other c =
  let c = row_next_col t r ~from:c in
  if c < 0 then -1
  else if c <> other && A1.unsafe_get assigns c = code_unknown then c
  else find_watch t assigns r other (c + 1)

(* Parity (0/1) of the assigned-true set columns of row [r], skipping
   column [skip] (-1 to include all).  Every non-skipped column must be
   assigned when this is called. *)
let rec row_sum t (assigns : iarr) r skip c acc =
  let c = row_next_col t r ~from:c in
  if c < 0 then acc
  else if c = skip then row_sum t assigns r skip (c + 1) acc
  else
    row_sum t assigns r skip (c + 1)
      (if A1.unsafe_get assigns c = code_true then acc lxor 1 else acc)

let scan_begin t ~v =
  t.cur_var <- v;
  t.cur_read <- 0;
  t.cur_write <- 0

(* On conflict the unexamined tail of the watch list is preserved
   verbatim; the cursor is parked at the end so a stray further
   [scan_step] just reports [ev_done]. *)
let rec keep_rest ws read write =
  if read >= Ivec.size ws then Ivec.shrink ws write
  else begin
    Ivec.unsafe_set ws write (Ivec.unsafe_get ws read);
    keep_rest ws (read + 1) (write + 1)
  end

let rec scan_step t ~assigns =
  let ws = Array.unsafe_get t.watch t.cur_var in
  if t.cur_read >= Ivec.size ws then begin
    Ivec.shrink ws t.cur_write;
    t.cur_read <- 0;
    t.cur_write <- 0;
    ev_done
  end
  else begin
    let r = Ivec.unsafe_get ws t.cur_read in
    t.cur_read <- t.cur_read + 1;
    if A1.unsafe_get t.live r = 0 then scan_step t ~assigns
    else begin
      let v = t.cur_var in
      let other =
        if A1.unsafe_get t.w0 r = v then A1.unsafe_get t.w1 r else A1.unsafe_get t.w0 r
      in
      let c = find_watch t assigns r other 0 in
      if c >= 0 then begin
        (* relocate this watch to the unassigned column [c] *)
        if A1.unsafe_get t.w0 r = v then A1.unsafe_set t.w0 r c
        else A1.unsafe_set t.w1 r c;
        Ivec.push (Array.unsafe_get t.watch c) r;
        scan_step t ~assigns
      end
      else begin
        (* no replacement: the row stays on [v]'s list *)
        Ivec.unsafe_set ws t.cur_write r;
        t.cur_write <- t.cur_write + 1;
        if A1.unsafe_get assigns other = code_unknown then begin
          (* [other] is the only unassigned column: unit *)
          t.ev_row <- r;
          t.ev_var <- other;
          t.ev_val <- A1.unsafe_get t.rhs r lxor row_sum t assigns r other 0 0;
          ev_unit
        end
        else begin
          let sum = row_sum t assigns r (-1) 0 0 in
          if sum <> A1.unsafe_get t.rhs r then begin
            t.ev_row <- r;
            keep_rest ws t.cur_read t.cur_write;
            t.cur_read <- Ivec.size ws;
            t.cur_write <- Ivec.size ws;
            ev_conflict
          end
          else scan_step t ~assigns
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Level-0 Gauss-Jordan assimilation                                  *)
(* ------------------------------------------------------------------ *)

let xor_row_into t ~src ~dst =
  let sb = src * t.words and db = dst * t.words in
  for w = 0 to t.words - 1 do
    A1.unsafe_set t.mat (db + w) (A1.unsafe_get t.mat (db + w) lxor A1.unsafe_get t.mat (sb + w))
  done;
  A1.unsafe_set t.rhs dst (A1.unsafe_get t.rhs dst lxor A1.unsafe_get t.rhs src)

let retire t r =
  A1.unsafe_set t.live r 0;
  t.n_live <- t.n_live - 1

(* Substitute the current assignment into row [r]: assigned columns are
   cleared and true ones folded into the right-hand side. *)
let substitute_row t (assigns : iarr) r =
  let rec go c =
    let c = row_next_col t r ~from:c in
    if c >= 0 then begin
      let code = A1.unsafe_get assigns c in
      if code <> code_unknown then begin
        clear_bit t r c;
        if code = code_true then A1.unsafe_set t.rhs r (A1.unsafe_get t.rhs r lxor 1)
      end;
      go (c + 1)
    end
  in
  go 0

let rebuild_watches t =
  Array.iter Ivec.clear t.watch;
  for r = 0 to t.nrows - 1 do
    if A1.unsafe_get t.live r = 1 then begin
      let a = row_next_col t r ~from:0 in
      let b = row_next_col t r ~from:(a + 1) in
      A1.unsafe_set t.w0 r a;
      A1.unsafe_set t.w1 r b;
      Ivec.push t.watch.(a) r;
      Ivec.push t.watch.(b) r
    end
  done

let gauss t ~assigns =
  Ivec.clear t.units;
  for r = 0 to t.nrows - 1 do
    if A1.unsafe_get t.live r = 1 then substitute_row t assigns r
  done;
  (* Gauss-Jordan to RREF: each surviving row's pivot is eliminated from
     every other live row, so pivots are pairwise distinct and earlier
     rows can never be emptied by later eliminations. *)
  let ok = ref true in
  let r = ref 0 in
  while !ok && !r < t.nrows do
    if A1.unsafe_get t.live !r = 1 then begin
      let p = row_next_col t !r ~from:0 in
      if p < 0 then
        if A1.unsafe_get t.rhs !r = 1 then ok := false else retire t !r
      else
        for r2 = 0 to t.nrows - 1 do
          if r2 <> !r && A1.unsafe_get t.live r2 = 1 && get_bit t r2 p then
            xor_row_into t ~src:!r ~dst:r2
        done
    end;
    incr r
  done;
  (* Normalize even on an inconsistency: retire empty rows (the 0 = 1
     witness included — [false] below already reports it), sweep singleton
     rows into the unit queue, and rebuild the watches so the structure
     stays invariant-clean whatever the caller does next.  On failure the
     solver marks itself UNSAT and never reads the units. *)
  for r = 0 to t.nrows - 1 do
    if A1.unsafe_get t.live r = 1 then begin
      let pc = row_popcount t r in
      if pc = 0 then retire t r
      else if pc = 1 then begin
        let v = row_next_col t r ~from:0 in
        Ivec.push t.units ((2 * v) + (1 - A1.unsafe_get t.rhs r));
        retire t r
      end
    end
  done;
  rebuild_watches t;
  if !ok then t.dirty <- false;
  !ok

(* ------------------------------------------------------------------ *)
(* Cold accessors                                                     *)
(* ------------------------------------------------------------------ *)

let row_vars t r =
  let rec go c acc =
    let c = row_next_col t r ~from:c in
    if c < 0 then List.rev acc else go (c + 1) (c :: acc)
  in
  go 0 []

let live_rows t =
  let acc = ref [] in
  for r = t.nrows - 1 downto 0 do
    if A1.unsafe_get t.live r = 1 then acc := (row_vars t r, row_rhs t r) :: !acc
  done;
  !acc

let copy t =
  {
    t with
    mat = copy_iarr t.mat;
    rhs = copy_iarr t.rhs;
    live = copy_iarr t.live;
    w0 = copy_iarr t.w0;
    w1 = copy_iarr t.w1;
    watch = Ivec.copy_array t.watch;
    units = Ivec.copy t.units;
  }

let invariant_violations t =
  let bad = ref [] in
  let fail fmt = Format.kasprintf (fun s -> bad := s :: !bad) fmt in
  for r = 0 to t.nrows - 1 do
    if A1.unsafe_get t.live r = 1 then begin
      let a = A1.unsafe_get t.w0 r and b = A1.unsafe_get t.w1 r in
      if row_popcount t r < 2 then fail "parity row %d live with fewer than 2 columns" r;
      if a = b then fail "parity row %d watches column %d twice" r a;
      if a < 0 || a >= t.cols || not (get_bit t r a) then
        fail "parity row %d watch w0=%d not a set column" r a;
      if b < 0 || b >= t.cols || not (get_bit t r b) then
        fail "parity row %d watch w1=%d not a set column" r b;
      let on_list c =
        c >= 0 && c < t.cols
        &&
        let ws = t.watch.(c) in
        let rec mem i = i < Ivec.size ws && (Ivec.get ws i = r || mem (i + 1)) in
        mem 0
      in
      if not (on_list a) then fail "parity row %d missing from watch list of %d" r a;
      if not (on_list b) then fail "parity row %d missing from watch list of %d" r b
    end
  done;
  Array.iteri
    (fun c ws ->
      Ivec.iter
        (fun r ->
          if r < 0 || r >= t.nrows then fail "watch list %d holds bad row %d" c r
          else if
            A1.unsafe_get t.live r = 1
            && A1.unsafe_get t.w0 r <> c
            && A1.unsafe_get t.w1 r <> c
          then fail "watch list %d holds row %d not watching it" c r)
        ws)
    t.watch;
  List.rev !bad
