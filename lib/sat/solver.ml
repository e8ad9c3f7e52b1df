open Types

type config = {
  var_decay : float;
  clause_decay : float;
  restart_first : int;
  use_luby : bool;
  restart_inc : float;
  learntsize_factor : float;
  learntsize_inc : float;
  minimise_learnts : bool;
}

let default_config =
  {
    var_decay = 0.95;
    clause_decay = 0.999;
    restart_first = 100;
    use_luby = true;
    restart_inc = 2.0;
    learntsize_factor = 1.0 /. 3.0;
    learntsize_inc = 1.1;
    minimise_learnts = true;
  }

(* Clauses live in a flat {!Arena} and are addressed by word offsets
   ([Arena.cref]); watcher lists are flat (cref, blocker) int pairs in
   {!Ivec}s, and reason references are crefs.  Deleted clauses keep their
   watchers until propagation visits them (lazy detach) — the arena is
   compacted, with a full watch rebuild, once a quarter of it is dead.

   All per-variable maps (assignment codes, levels, reasons, the trail,
   saved phases, activities, seen flags and the analysis stamp arrays)
   are off-heap [Bigarray]s, and the propagate/analyze/search loop is
   written to allocate nothing in steady state: no closures, no tuples,
   no options, no boxed floats — inner loops are top-level recursive
   helpers over int state, conflicts are signalled by int return codes,
   and conflict analysis reuses preallocated scratch vectors.  The GC
   therefore neither scans nor moves any hot solver state, and BCP runs
   without triggering minor collections. *)

module A1 = Bigarray.Array1

type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let make_iarr n x : iarr =
  let b = A1.create Bigarray.int Bigarray.c_layout (Int.max 1 n) in
  A1.fill b x;
  b

let make_farr n : farr =
  let b = A1.create Bigarray.float64 Bigarray.c_layout (Int.max 1 n) in
  A1.fill b 0.0;
  b

(* Copy-grow: a fresh store of [n] slots filled with [x], the first
   [dim old] slots blitted from [old]. *)
let grow_iarr (old : iarr) n x : iarr =
  let b = make_iarr n x in
  A1.blit old (A1.sub b 0 (A1.dim old));
  b

let grow_farr (old : farr) n : farr =
  let b = make_farr n in
  A1.blit old (A1.sub b 0 (A1.dim old));
  b

(* Native XOR (parity) constraints live in a {!Parity} watched bitmatrix;
   the solver drives its in-search scan at each propagated literal and its
   level-0 Gauss-Jordan assimilation at solve entry and restart
   boundaries. *)

(* Variable assignments are stored as int codes so that the value of a
   literal is one xor away from the value of its variable — no variant
   matching on the propagation hot path. *)
let code_true = 0

let code_false = 1
let code_unknown = 2

type t = {
  config : config;
  mutable nvars : int;
  mutable arena : Arena.t;
  clauses : Ivec.t; (* problem clause crefs *)
  learnts : Ivec.t; (* learnt clause crefs (live only) *)
  binlog : Ivec.t; (* grow-only log of learnt binaries, packed lit pairs *)
  ternlog : Ivec.t; (* grow-only log of learnt ternaries, packed lit triples *)
  mutable ternary_lbd_cap : int; (* log ternaries with LBD <= cap; 0 = off *)
  (* import_packed scratch: scalar slots for the up-to-three surviving
     literals of a clause under adoption, as record fields so the import
     path allocates no ref cells (check.hotpaths holds it to the
     zero-allocation rule) *)
  mutable imp_l0 : int;
  mutable imp_l1 : int;
  mutable imp_l2 : int;
  mutable imp_keep : int;
  mutable imp_sat : bool;
  mutable watches : Ivec.t array; (* literal -> (cref, blocker) pairs *)
  mutable assigns : iarr; (* variable -> code_true/false/unknown *)
  mutable phase : iarr; (* saved phase per variable, 0/1 *)
  mutable activity : farr;
  mutable reason : iarr; (* variable -> cref or Arena.none *)
  mutable level : iarr;
  mutable trail : iarr;
  mutable trail_size : int;
  trail_lim : Ivec.t; (* trail index at each decision level *)
  mutable qhead : int;
  mutable heap : Var_heap.t;
  mutable ok : bool;
  incs : farr; (* slot 0: var_inc, slot 1: cla_inc — off-heap so the
                   per-conflict decays never box a float field write *)
  mutable seen : iarr; (* variable -> 0/1 *)
  mutable max_learnts : float;
  parity : Parity.t; (* XOR rows: watched bitmatrix + level-0 Gauss-Jordan *)
  mutable parity_hwm : int; (* root units assimilated by the last gauss pass *)
  parity_scratch : Ivec.t; (* parity reason clause being built *)
  mutable proof_enabled : bool;
  mutable proof_log : Proof.step list; (* reversed *)
  (* --- preallocated scratch of the zero-allocation hot path --- *)
  mutable prop_conflict : int; (* conflicting cref of the last propagate *)
  analyze_scratch : Ivec.t;
      (* non-UIP learnt literals, in discovery order; after the UIP walk
         their variables are exactly the ones still marked seen *)
  learnt_scratch : Ivec.t; (* the learnt clause being built *)
  mutable analyze_bt : int; (* backtrack level of the last analysis *)
  mutable analyze_lbd : int; (* LBD of the last learnt clause *)
  mutable lbd_stamp : iarr; (* decision level -> stamp epoch *)
  mutable stamp : int; (* current lbd_stamp epoch *)
  mutable redu_seen : iarr; (* variable -> redu_epoch when memoised *)
  mutable redu_val : iarr; (* variable -> memoised redundancy, 0/1 *)
  mutable redu_epoch : int;
  stats : stats;
}

let lit_var p = p lsr 1
let lit_neg p = p lxor 1

(* ---------------- hoisted stores ---------------- *)

(* dune's default (dev) profile compiles every module with [-opaque], so
   no call into {!Ivec} or {!Arena} is inlined: each [Ivec.unsafe_get] or
   [Arena.lit] is an out-of-line call that reloads the record field and
   the Bigarray data pointer.  The hot loops below therefore take the
   stores they touch as arguments, fetched once per propagated literal or
   per conflict, and read the words by offset through these helpers, which
   ocamlopt inlines.  A clause [c] in the arena store ({!Arena.data}) has
   its header at word [c] (n_lits lsl 3 | temp lsl 2 | deleted lsl 1 |
   learnt) and its literal [i] at word [c+2+i]. *)
let[@inline] c_n_lits (ad : iarr) c = A1.unsafe_get ad c lsr 3
let[@inline] c_learnt (ad : iarr) c = A1.unsafe_get ad c land 1 = 1
let[@inline] c_deleted (ad : iarr) c = A1.unsafe_get ad c land 2 = 2
let[@inline] c_temp (ad : iarr) c = A1.unsafe_get ad c land 4 = 4
let[@inline] c_lit (ad : iarr) c i = A1.unsafe_get ad (c + 2 + i)
let[@inline] c_set_lit (ad : iarr) c i p = A1.unsafe_set ad (c + 2 + i) p

(* The value code of literal [p] under the assignment store [assigns]:
   0 = true, 1 = false, 2 = unknown. *)
let[@inline] code_of (assigns : iarr) p =
  let a = A1.unsafe_get assigns (p lsr 1) in
  if a = code_unknown then code_unknown else a lxor (p land 1)

let create ?(config = default_config) ~nvars () =
  if nvars < 0 then invalid_arg "Solver.create";
  let n = Int.max nvars 1 in
  let activity = make_farr n in
  let t =
    {
      config;
      nvars;
      arena = Arena.create ();
      clauses = Ivec.create ();
      learnts = Ivec.create ();
      binlog = Ivec.create ();
      ternlog = Ivec.create ();
      ternary_lbd_cap = 0;
      imp_l0 = -1;
      imp_l1 = -1;
      imp_l2 = -1;
      imp_keep = 0;
      imp_sat = false;
      watches = Ivec.make_array (2 * n);
      assigns = make_iarr n code_unknown;
      phase = make_iarr n 0;
      activity;
      reason = make_iarr n Arena.none;
      level = make_iarr n 0;
      trail = make_iarr n 0;
      trail_size = 0;
      trail_lim = Ivec.create ();
      qhead = 0;
      heap = Var_heap.create n activity;
      ok = true;
      incs = (let b = make_farr 2 in A1.fill b 1.0; b);
      seen = make_iarr n 0;
      max_learnts = 1000.0;
      parity = Parity.create ~cols:n ();
      parity_hwm = 0;
      parity_scratch = Ivec.create ();
      proof_enabled = false;
      proof_log = [];
      prop_conflict = Arena.none;
      analyze_scratch = Ivec.create ();
      learnt_scratch = Ivec.create ();
      analyze_bt = 0;
      analyze_lbd = 0;
      lbd_stamp = make_iarr (n + 1) 0;
      stamp = 0;
      redu_seen = make_iarr n 0;
      redu_val = make_iarr n 0;
      redu_epoch = 0;
      stats = fresh_stats ();
    }
  in
  for v = 0 to nvars - 1 do
    Var_heap.insert t.heap v
  done;
  t

let nvars t = t.nvars

let grow_arrays t cap =
  let old = A1.dim t.assigns in
  if cap > old then begin
    let n = Int.max cap (2 * old) in
    t.assigns <- grow_iarr t.assigns n code_unknown;
    t.phase <- grow_iarr t.phase n 0;
    t.activity <- grow_farr t.activity n;
    t.reason <- grow_iarr t.reason n Arena.none;
    t.level <- grow_iarr t.level n 0;
    t.trail <- grow_iarr t.trail n 0;
    t.seen <- grow_iarr t.seen n 0;
    t.lbd_stamp <- grow_iarr t.lbd_stamp (n + 1) 0;
    t.redu_seen <- grow_iarr t.redu_seen n 0;
    t.redu_val <- grow_iarr t.redu_val n 0;
    t.watches <- Ivec.extend_array t.watches (2 * n);
    Parity.ensure_cols t.parity n;
    t.heap <- Var_heap.grow t.heap n t.activity
  end

let new_var t =
  let v = t.nvars in
  grow_arrays t (v + 1);
  t.nvars <- v + 1;
  Var_heap.insert t.heap v;
  v

let lit_code t p = code_of t.assigns p

let decision_level t = Ivec.size t.trail_lim

(* ---------------- proof logging ---------------- *)

let enable_proof t = t.proof_enabled <- true

let log_step t step = if t.proof_enabled then t.proof_log <- step :: t.proof_log

(* The packed literals of [v] as a clause; built only when logging. *)
let clause_of_ivec v = List.init (Ivec.size v) (fun i -> Cnf.Lit.of_index (Ivec.get v i))

let mark_unsat t =
  t.ok <- false;
  log_step t (Proof.Rup [])

let proof t = List.rev t.proof_log

(* ---------------- activity ---------------- *)

let var_rescale = 1e100

let bump_var t v =
  A1.unsafe_set t.activity v (A1.unsafe_get t.activity v +. A1.unsafe_get t.incs 0);
  if A1.unsafe_get t.activity v > var_rescale then begin
    for i = 0 to t.nvars - 1 do
      A1.unsafe_set t.activity i (A1.unsafe_get t.activity i *. 1e-100)
    done;
    A1.unsafe_set t.incs 0 (A1.unsafe_get t.incs 0 *. 1e-100)
  end;
  Var_heap.update t.heap v

let decay_var_activity t =
  A1.unsafe_set t.incs 0 (A1.unsafe_get t.incs 0 /. t.config.var_decay)

(* Clause activities are read/written through the arena's raw float store
   so no boxed floats cross the Arena call boundary on the analysis
   path. *)
let bump_clause t c =
  let act = Arena.act_store t.arena in
  A1.unsafe_set act c (A1.unsafe_get act c +. A1.unsafe_get t.incs 1);
  if A1.unsafe_get act c > 1e20 then begin
    for i = 0 to Ivec.size t.learnts - 1 do
      let c = Ivec.unsafe_get t.learnts i in
      A1.unsafe_set act c (A1.unsafe_get act c *. 1e-20)
    done;
    A1.unsafe_set t.incs 1 (A1.unsafe_get t.incs 1 *. 1e-20)
  end

let decay_clause_activity t =
  A1.unsafe_set t.incs 1 (A1.unsafe_get t.incs 1 /. t.config.clause_decay)

(* ---------------- assignment ---------------- *)

(* Assign [p] at decision level [lvl]: the hot callers read the level
   once per propagation fixpoint instead of once per assignment. *)
let enqueue_at t lvl p reason =
  let v = lit_var p in
  assert (A1.unsafe_get t.assigns v = code_unknown);
  A1.unsafe_set t.assigns v (p land 1);
  (* code_true for a positive literal *)
  A1.unsafe_set t.level v lvl;
  A1.unsafe_set t.reason v reason;
  A1.unsafe_set t.trail t.trail_size p;
  t.trail_size <- t.trail_size + 1

let enqueue t p reason = enqueue_at t (decision_level t) p reason

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Ivec.get t.trail_lim lvl in
    let ad = Arena.data t.arena in
    for i = t.trail_size - 1 downto bound do
      let p = A1.unsafe_get t.trail i in
      let v = lit_var p in
      A1.unsafe_set t.phase v (if A1.unsafe_get t.assigns v = code_true then 1 else 0);
      A1.unsafe_set t.assigns v code_unknown;
      let r = A1.unsafe_get t.reason v in
      if r <> Arena.none && c_temp ad r then
        (* transient XOR reason clauses die with their assignment *)
        Arena.mark_deleted t.arena r;
      A1.unsafe_set t.reason v Arena.none;
      Var_heap.insert t.heap v
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    Ivec.shrink t.trail_lim lvl
  end

(* ---------------- watches / clause attachment ---------------- *)

let attach t c =
  let a = t.arena in
  assert (Arena.n_lits a c >= 2);
  (* the clause is found when one of its first two literals becomes false,
     i.e. when the negation of that literal is assigned true *)
  let l0 = Arena.lit a c 0 and l1 = Arena.lit a c 1 in
  Ivec.push2 t.watches.(lit_neg l0) c l1;
  Ivec.push2 t.watches.(lit_neg l1) c l0

let locked t c =
  let a = t.arena in
  Arena.n_lits a c > 0
  &&
  let p = Arena.lit a c 0 in
  A1.unsafe_get t.reason (lit_var p) = c && lit_code t p = code_true

(* ---------------- native XOR constraints ---------------- *)

let var_bool t v = A1.unsafe_get t.assigns v = code_true

(* Reason/conflict clause for parity row [r] under the current
   assignment: the currently-false literal of every assigned column, with
   the implied literal (if any) in front, as conflict analysis expects.
   Built in the preallocated [parity_scratch] and allocated in the arena
   as a temporary — never attached, reclaimed when its assignment is
   undone (or, for conflicts, right after analysis). *)
let rec push_row_lits t r skip c =
  let c = Parity.row_next_col t.parity r ~from:c in
  if c >= 0 then begin
    if c <> skip then
      Ivec.push t.parity_scratch ((2 * c) + if var_bool t c then 1 else 0);
    push_row_lits t r skip (c + 1)
  end

let parity_clause t r ~implied_var ~implied_val =
  Ivec.clear t.parity_scratch;
  if implied_var >= 0 then
    Ivec.push t.parity_scratch ((2 * implied_var) + if implied_val then 0 else 1);
  push_row_lits t r implied_var 0;
  let n = Ivec.size t.parity_scratch in
  let c = Arena.alloc_blank t.arena ~learnt:false ~temp:true n in
  let ad = Arena.data t.arena and sd = Ivec.store t.parity_scratch in
  for i = 0 to n - 1 do
    c_set_lit ad c i (A1.unsafe_get sd i)
  done;
  if t.proof_enabled then log_step t (Proof.Parity (clause_of_ivec t.parity_scratch));
  c

(* Drive the parity scan for the just-assigned variable primed by
   [Parity.scan_begin]: implied literals are enqueued with row-derived
   temporary reasons; a falsified row surfaces through [t.prop_conflict]
   and drains the queue, exactly like a clausal conflict. *)
let rec parity_scan t =
  let ev = Parity.scan_step t.parity ~assigns:t.assigns in
  if ev = Parity.ev_unit then begin
    let r = Parity.event_row t.parity in
    let iv = Parity.implied_var t.parity in
    let b = Parity.implied_val t.parity in
    let reason = parity_clause t r ~implied_var:iv ~implied_val:b in
    t.stats.parity_propagations <- t.stats.parity_propagations + 1;
    enqueue t ((2 * iv) + if b then 0 else 1) reason;
    parity_scan t
  end
  else if ev = Parity.ev_conflict then begin
    t.stats.parity_conflicts <- t.stats.parity_conflicts + 1;
    t.prop_conflict <-
      parity_clause t (Parity.event_row t.parity) ~implied_var:(-1) ~implied_val:false;
    t.qhead <- t.trail_size
  end

(* ---------------- propagation ---------------- *)

(* The BCP inner loops are top-level recursive helpers over int state —
   no closures, no refs, no tuples — so a propagation step allocates
   nothing.  A conflict is signalled through [t.prop_conflict] (int
   field) instead of an exception or option. *)

(* The scan reads three stores fetched once per propagated literal: [wd],
   the watch list's words (cref, blocker pairs); [ad], the arena's words;
   and [assigns].  None of them is replaced during a scan: a moved watch
   goes to another literal's list (never the one scanned: the new watch is
   not false), and no clause is allocated. *)

(* First position >= [k] in clause [c] holding a non-false literal, or
   -1. *)
let rec find_watch (ad : iarr) (assigns : iarr) c k n =
  if k >= n then -1
  else if code_of assigns (c_lit ad c k) <> code_false then k
  else find_watch ad assigns c (k + 1) n

(* After a conflict: keep every unexamined watcher pair, copying
   [i, n_ws) down to write position [j]; returns the final size. *)
let rec copy_rest (wd : iarr) i j n_ws =
  if i >= n_ws then j
  else begin
    A1.unsafe_set wd j (A1.unsafe_get wd i);
    A1.unsafe_set wd (j + 1) (A1.unsafe_get wd (i + 1));
    copy_rest wd (i + 2) (j + 2) n_ws
  end

(* One scan's watcher counters, added to the stats when the scan ends. *)
let note_scan t visits hits =
  t.stats.watch_visits <- t.stats.watch_visits + visits;
  t.stats.blocker_hits <- t.stats.blocker_hits + hits

(* Scan the watcher pairs of the just-falsified literal [false_lit]: [i]
   reads, [j] writes back the watchers that stay; returns the compacted
   size.  Implied literals are assigned at level [lvl]; [hits] counts the
   watchers skipped on a true blocker.  Sets [t.prop_conflict] and drains
   the queue on conflict. *)
let rec scan_watchers t (wd : iarr) (ad : iarr) (assigns : iarr) false_lit lvl i j n_ws hits =
  if i >= n_ws then begin
    note_scan t (n_ws / 2) hits;
    j
  end
  else begin
    let c = A1.unsafe_get wd i in
    let blocker = A1.unsafe_get wd (i + 1) in
    if code_of assigns blocker = code_true then begin
      A1.unsafe_set wd j c;
      A1.unsafe_set wd (j + 1) blocker;
      scan_watchers t wd ad assigns false_lit lvl (i + 2) (j + 2) n_ws (hits + 1)
    end
    else if c_deleted ad c then begin
      (* lazy detach: simply drop the watcher *)
      t.stats.lazy_detach_drops <- t.stats.lazy_detach_drops + 1;
      scan_watchers t wd ad assigns false_lit lvl (i + 2) j n_ws hits
    end
    else begin
      (* normalise: the false watch goes to position 1 *)
      if c_lit ad c 0 = false_lit then begin
        c_set_lit ad c 0 (c_lit ad c 1);
        c_set_lit ad c 1 false_lit
      end;
      let first = c_lit ad c 0 in
      if first <> blocker && code_of assigns first = code_true then begin
        (* satisfied; keep watching with a better blocker *)
        A1.unsafe_set wd j c;
        A1.unsafe_set wd (j + 1) first;
        scan_watchers t wd ad assigns false_lit lvl (i + 2) (j + 2) n_ws hits
      end
      else begin
        (* look for a new literal to watch *)
        let k = find_watch ad assigns c 2 (c_n_lits ad c) in
        if k >= 0 then begin
          let lk = c_lit ad c k in
          c_set_lit ad c k false_lit;
          c_set_lit ad c 1 lk;
          Ivec.push2 t.watches.(lit_neg lk) c first;
          scan_watchers t wd ad assigns false_lit lvl (i + 2) j n_ws hits
        end
        else begin
          (* unit or conflicting; keep this watcher *)
          A1.unsafe_set wd j c;
          A1.unsafe_set wd (j + 1) first;
          if code_of assigns first = code_false then begin
            t.prop_conflict <- c;
            t.qhead <- t.trail_size;
            note_scan t ((i / 2) + 1) hits;
            (* keep the unexamined watchers *)
            copy_rest wd (i + 2) (j + 2) n_ws
          end
          else begin
            enqueue_at t lvl first c;
            scan_watchers t wd ad assigns false_lit lvl (i + 2) (j + 2) n_ws hits
          end
        end
      end
    end
  end

(* Two-watched-literal Boolean constraint propagation over the flat arena.
   Returns the conflicting clause's cref, or [Arena.none].  Watchers of
   deleted clauses are dropped here (lazy detach) instead of being scanned
   out eagerly at deletion time.  The decision level is fixed for the
   whole fixpoint; the stores are re-fetched per literal, since the parity
   scan between two literals allocates reason clauses in the arena. *)
let propagate t =
  t.prop_conflict <- Arena.none;
  let lvl = decision_level t in
  while t.prop_conflict = Arena.none && t.qhead < t.trail_size do
    let p = A1.unsafe_get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.stats.propagations <- t.stats.propagations + 1;
    (* p became true; clauses registered under p watch a literal that just
       became false.  The watcher pairs are compacted in place. *)
    let ws = Array.unsafe_get t.watches p in
    Ivec.shrink ws
      (scan_watchers t (Ivec.store ws) (Arena.data t.arena) t.assigns (lit_neg p) lvl 0 0
         (Ivec.size ws) 0);
    if t.prop_conflict = Arena.none && Parity.n_live t.parity > 0 then begin
      Parity.scan_begin t.parity ~v:(lit_var p);
      parity_scan t
    end
  done;
  t.prop_conflict

(* ---------------- conflict analysis (first UIP) ---------------- *)

(* Analysis reads the arena's words [ad] (no clause is allocated until
   the learnt clause is recorded) and the per-variable stores, taken as
   arguments like the watcher scan's. *)

(* Recursive learnt-clause minimisation (MiniSat's deep litRedundant): a
   literal is redundant if, walking its implication ancestry, every branch
   terminates in a literal already in the clause (seen) or at level 0.
   Results are memoised per top-level query in flat stamp arrays
   ([redu_seen]/[redu_val], epoch-invalidated — no per-call hash table);
   a depth cap bounds pathological graphs (failing the cap just keeps the
   literal, which is always sound). *)
let rec lit_redundant t (ad : iarr) (reason : iarr) (level : iarr) (seen : iarr) depth q =
  depth <= 64
  &&
  let r = A1.unsafe_get reason (q lsr 1) in
  r <> Arena.none && redundant_lits t ad reason level seen r 0 (c_n_lits ad r) depth q

and redundant_lits t (ad : iarr) (reason : iarr) (level : iarr) (seen : iarr) r i n depth q =
  i >= n
  ||
  let l = c_lit ad r i in
  let v = l lsr 1 in
  (v = q lsr 1
  || A1.unsafe_get level v = 0
  || A1.unsafe_get seen v = 1
  ||
  if A1.unsafe_get t.redu_seen v = t.redu_epoch then
    A1.unsafe_get t.redu_val v = 1
  else begin
    let b = lit_redundant t ad reason level seen (depth + 1) l in
    A1.unsafe_set t.redu_seen v t.redu_epoch;
    A1.unsafe_set t.redu_val v (if b then 1 else 0);
    b
  end)
  && redundant_lits t ad reason level seen r (i + 1) n depth q

let literal_redundant t (ad : iarr) q =
  t.redu_epoch <- t.redu_epoch + 1;
  lit_redundant t ad t.reason t.level t.seen 0 q

(* Mark the literals of conflict/reason clause [c] from position [i]:
   literals of the current level [lvl] count toward the UIP path,
   lower-level ones go into the analysis scratch.  Returns the updated
   path count. *)
let rec analyze_mark t (ad : iarr) (level : iarr) (seen : iarr) lvl c i n path_count =
  if i >= n then path_count
  else begin
    let q = c_lit ad c i in
    let v = q lsr 1 in
    if A1.unsafe_get seen v = 0 && A1.unsafe_get level v > 0 then begin
      A1.unsafe_set seen v 1;
      bump_var t v;
      if A1.unsafe_get level v >= lvl then
        analyze_mark t ad level seen lvl c (i + 1) n (path_count + 1)
      else begin
        Ivec.push t.analyze_scratch q;
        analyze_mark t ad level seen lvl c (i + 1) n path_count
      end
    end
    else analyze_mark t ad level seen lvl c (i + 1) n path_count
  end

(* Most recent trail position at or below [index] whose variable is
   seen. *)
let rec analyze_find_seen (seen : iarr) (trail : iarr) index =
  if A1.unsafe_get seen (A1.unsafe_get trail index lsr 1) = 1 then index
  else analyze_find_seen seen trail (index - 1)

(* First-UIP resolution walk; returns the asserting (UIP) literal.  Every
   current-level variable it marks is unmarked again on the way, so at
   the end the seen variables are exactly those of the analysis
   scratch. *)
let rec analyze_walk t (ad : iarr) lvl confl p_prev index path_count =
  if c_learnt ad confl then bump_clause t confl;
  let start = if p_prev = -1 then 0 else 1 in
  let path_count =
    analyze_mark t ad t.level t.seen lvl confl start (c_n_lits ad confl) path_count
  in
  (* next clause to inspect: walk the trail backwards to the most recent
     seen literal *)
  let index = analyze_find_seen t.seen t.trail index in
  let p = A1.unsafe_get t.trail index in
  A1.unsafe_set t.seen (p lsr 1) 0;
  let path_count = path_count - 1 in
  if path_count <= 0 then p
  else begin
    let r = A1.unsafe_get t.reason (p lsr 1) in
    assert (r <> Arena.none);
    (* only the UIP can lack a reason *)
    analyze_walk t ad lvl r p (index - 1) path_count
  end

(* Append the collected literals [sd] (the analysis scratch's store) to
   the learnt scratch newest-first (reverse discovery order — the order
   the list-based analysis produced), filtering redundant ones when
   minimisation is on. *)
let rec analyze_filter t (ad : iarr) (sd : iarr) i minimise =
  if i >= 0 then begin
    let q = A1.unsafe_get sd i in
    if (not minimise) || not (literal_redundant t ad q) then
      Ivec.push t.learnt_scratch q;
    analyze_filter t ad sd (i - 1) minimise
  end

(* Index of the highest-level literal among positions [i, n) of the
   learnt clause [ld]; the running best is [best]. *)
let rec learnt_max_level_idx (level : iarr) (ld : iarr) i n best =
  if i >= n then best
  else begin
    let better =
      A1.unsafe_get level (A1.unsafe_get ld i lsr 1)
      > A1.unsafe_get level (A1.unsafe_get ld best lsr 1)
    in
    learnt_max_level_idx level ld (i + 1) n (if better then i else best)
  end

(* Literal block distance of the learnt clause [ld]: distinct decision
   levels, counted by stamping [stamps] (decision level -> epoch) with
   [stamp] (no sets). *)
let rec learnt_lbd_count (level : iarr) (stamps : iarr) stamp (ld : iarr) i n acc =
  if i >= n then acc
  else begin
    let lvl = A1.unsafe_get level (A1.unsafe_get ld i lsr 1) in
    if A1.unsafe_get stamps lvl = stamp then learnt_lbd_count level stamps stamp ld (i + 1) n acc
    else begin
      A1.unsafe_set stamps lvl stamp;
      learnt_lbd_count level stamps stamp ld (i + 1) n (acc + 1)
    end
  end

(* Unmark the variables of literals [i, n) of [sd]. *)
let rec clear_seen (seen : iarr) (sd : iarr) i n =
  if i < n then begin
    A1.unsafe_set seen (A1.unsafe_get sd i lsr 1) 0;
    clear_seen seen sd (i + 1) n
  end

(* First-UIP conflict analysis.  The learnt clause is left in
   [t.learnt_scratch] (asserting literal first), the backtrack level in
   [t.analyze_bt] and the clause's LBD in [t.analyze_lbd] — scratch state
   instead of a returned tuple, so a conflict allocates nothing. *)
let analyze t confl =
  Ivec.clear t.analyze_scratch;
  let ad = Arena.data t.arena in
  let p = analyze_walk t ad (decision_level t) confl (-1) (t.trail_size - 1) 0 in
  Ivec.clear t.learnt_scratch;
  Ivec.push t.learnt_scratch (lit_neg p);
  (* redundancy filtering consults the still-set seen flags *)
  let sd = Ivec.store t.analyze_scratch and n_marked = Ivec.size t.analyze_scratch in
  analyze_filter t ad sd (n_marked - 1) t.config.minimise_learnts;
  let nl = Ivec.size t.learnt_scratch in
  let ld = Ivec.store t.learnt_scratch in
  (* compute backtrack level: highest level among learnt positions 1.. *)
  t.analyze_bt <-
    (if nl = 1 then 0
     else begin
       let max_i = learnt_max_level_idx t.level ld 2 nl 1 in
       let tmp = A1.unsafe_get ld 1 in
       A1.unsafe_set ld 1 (A1.unsafe_get ld max_i);
       A1.unsafe_set ld max_i tmp;
       A1.unsafe_get t.level (A1.unsafe_get ld 1 lsr 1)
     end);
  t.stamp <- t.stamp + 1;
  t.analyze_lbd <- learnt_lbd_count t.level t.lbd_stamp t.stamp ld 0 nl 0;
  clear_seen t.seen sd 0 n_marked

(* ---------------- clause addition ---------------- *)

(* Literal [i] of clause [c] as a packed index. *)
let clit c i = Cnf.Lit.to_index (Cnf.Clause.get c i)

(* Root-level simplification of a clause whose literals are ascending and
   distinct (a [Cnf.Clause.t]): succeed on a true literal or a
   complementary pair (adjacent, since x and ~x are 2v and 2v+1), drop
   false literals, and store the rest in ascending order — straight into
   the arena, with no list or array built on the way. *)
let add_clause_internal t c =
  assert (decision_level t = 0);
  let n = Cnf.Clause.length c in
  let rec tautology i = i + 1 < n && (clit c i lxor 1 = clit c (i + 1) || tautology (i + 1)) in
  let rec satisfied i = i < n && (lit_code t (clit c i) = code_true || satisfied (i + 1)) in
  let rec kept i acc = if i >= n then acc else kept (i + 1) (if lit_code t (clit c i) = code_false then acc else acc + 1) in
  let rec first_kept i = if lit_code t (clit c i) = code_false then first_kept (i + 1) else clit c i in
  if tautology 0 || satisfied 0 then true
  else
    match kept 0 0 with
    | 0 ->
        mark_unsat t;
        false
    | 1 ->
        enqueue t (first_kept 0) Arena.none;
        if propagate t <> Arena.none then begin
          mark_unsat t;
          false
        end
        else true
    | k ->
        let cr = Arena.alloc_blank t.arena ~learnt:false ~temp:false k in
        let j = ref 0 in
        for i = 0 to n - 1 do
          let p = clit c i in
          if lit_code t p <> code_false then begin
            Arena.set_lit t.arena cr !j p;
            incr j
          end
        done;
        Ivec.push t.clauses cr;
        attach t cr;
        true

let add_cnf_clause t c =
  if not t.ok then false
  else begin
    let n = Cnf.Clause.length c in
    if n > 0 then begin
      (* ascending literals: the last has the largest variable *)
      let top = lit_var (clit c (n - 1)) in
      grow_arrays t (top + 1);
      if top >= t.nvars then begin
        for v = t.nvars to top do
          Var_heap.insert t.heap v
        done;
        t.nvars <- top + 1
      end
    end;
    add_clause_internal t c
  end

let add_clause t lits = add_cnf_clause t (Cnf.Clause.of_list lits)

let add_formula t f = List.for_all (add_cnf_clause t) (Cnf.Formula.clauses f)

let add_xor t ~vars ~parity =
  if not t.ok then false
  else begin
    assert (decision_level t = 0);
    (* cancel duplicated variables (GF(2)) and fold root-level values *)
    let sorted = List.sort Int.compare vars in
    let rec dedup = function
      | a :: b :: rest when Int.equal a b -> dedup rest
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    let distinct = dedup sorted in
    List.iter (fun v -> grow_arrays t (v + 1)) distinct;
    List.iter
      (fun v ->
        if v >= t.nvars then begin
          for w = t.nvars to v do
            Var_heap.insert t.heap w
          done;
          t.nvars <- v + 1
        end)
      distinct;
    let parity, free =
      List.fold_left
        (fun (parity, free) v ->
          if A1.get t.assigns v = code_unknown then (parity, v :: free)
          else if A1.get t.assigns v = code_true then (not parity, free)
          else (parity, free))
        (parity, []) distinct
    in
    (* a row folded to a unit or to 0 = 1 is a parity step: the root
       values it absorbed are not in the clause *)
    match free with
    | [] ->
        if parity then begin
          log_step t (Proof.Parity []);
          mark_unsat t;
          false
        end
        else true
    | [ v ] ->
        let unit = Cnf.Lit.make v ~negated:(not parity) in
        log_step t (Proof.Parity [ unit ]);
        add_clause_internal t (Cnf.Clause.of_list [ unit ])
    | _ :: _ :: _ ->
        Parity.add_row t.parity ~vars:(List.rev free) ~parity;
        true
  end

(* ---------------- arena compaction ---------------- *)

(* Mark-then-compact: copy every live clause into a fresh arena (leaving
   forwarding pointers behind), remap the clause-reference holders
   (problem/learnt vectors and reason slots, including transient XOR
   reasons), then rebuild all watch lists from scratch.  Stale watchers of
   deleted clauses vanish with the old lists — no per-deletion scan ever
   happens. *)
let compact t =
  Obs.Trace.with_span ~name:"sat.arena_gc" @@ fun () ->
  let old = t.arena in
  (* half-again headroom over the live words: an exactly-sized arena
     forces the very next learnt allocation to double-and-copy the store
     compaction just built — measurable residual allocation on long
     solves (the bcp_ksat_250 gate) for no memory saving that survives
     the next growth anyway *)
  let live = Arena.words old - Arena.wasted old in
  let into = Arena.create ~cap:(live + (live / 2) + 16) () in
  let remap vec =
    for i = 0 to Ivec.size vec - 1 do
      Ivec.set vec i (Arena.move old ~into (Ivec.get vec i))
    done
  in
  remap t.clauses;
  remap t.learnts;
  for v = 0 to t.nvars - 1 do
    let r = A1.get t.reason v in
    if r <> Arena.none then A1.set t.reason v (Arena.move old ~into r)
  done;
  t.arena <- into;
  Array.iter Ivec.clear t.watches;
  Ivec.iter (fun c -> attach t c) t.clauses;
  Ivec.iter (fun c -> attach t c) t.learnts;
  t.stats.arena_gcs <- t.stats.arena_gcs + 1

let maybe_compact t =
  let a = t.arena in
  if Arena.words a > 4096 && 4 * Arena.wasted a > Arena.words a then compact t

(* ---------------- learnt DB reduction ---------------- *)

let reduce_db t =
  Obs.Trace.with_span ~name:"sat.reduce_db" @@ fun () ->
  let a = t.arena in
  (* order: worse clauses first (higher LBD, then lower activity); the
     activity tiebreak reads the raw float store — a cross-module
     [Arena.activity] call would box two floats per comparison, and the
     sort makes ~n log n of them *)
  let st = Arena.act_store a in
  let cmp c1 c2 =
    let l1 = Arena.lbd a c1 and l2 = Arena.lbd a c2 in
    if l1 <> l2 then Int.compare l2 l1
    else
      let a1 = A1.unsafe_get st c1 and a2 = A1.unsafe_get st c2 in
      if a1 < a2 then -1 else if a1 > a2 then 1 else 0
  in
  Ivec.sort_in_place cmp t.learnts;
  let target = Ivec.size t.learnts / 2 in
  let removed = ref 0 in
  let keep c =
    if
      !removed < target
      && (not (locked t c))
      && Arena.n_lits a c > 2
      && Arena.lbd a c > 2
    then begin
      (* mark only: watchers are dropped lazily during propagation *)
      Arena.mark_deleted a c;
      t.stats.deleted_clauses <- t.stats.deleted_clauses + 1;
      incr removed;
      false
    end
    else true
  in
  Ivec.filter_in_place keep t.learnts;
  maybe_compact t

(* ---------------- restarts ---------------- *)

(* Luby restart sequence 1,1,2,1,1,2,4,... (MiniSat's formulation): find
   the finite subsequence containing index [x], then walk down. *)
let luby y x =
  let rec find size seq = if size < x + 1 then find ((2 * size) + 1) (seq + 1) else (size, seq) in
  let size, seq = find 1 0 in
  let rec walk size seq x =
    if size - 1 = x then y ** float_of_int seq
    else
      let size = (size - 1) / 2 in
      walk size (seq - 1) (x mod size)
  in
  walk size seq x

(* ---------------- search ---------------- *)

(* Search outcomes as int codes — the search loop is allocation-free, so
   no variant constructors on its exit paths. *)
let sr_restart = 0

let sr_sat = 1
let sr_unsat = 2
let sr_undecided = 3

(* Record the learnt clause sitting in [t.learnt_scratch] (written by
   {!analyze}): allocate it in the arena literal-by-literal — no
   intermediate array — attach, bump, and enqueue the asserting
   literal. *)
let record_learnt t lbd =
  let nl = Ivec.size t.learnt_scratch in
  if t.proof_enabled then log_step t (Proof.Rup (clause_of_ivec t.learnt_scratch));
  assert (nl > 0);
  if nl = 1 then enqueue t (Ivec.unsafe_get t.learnt_scratch 0) Arena.none
  else begin
    let c = Arena.alloc_blank t.arena ~learnt:true ~temp:false nl in
    let ad = Arena.data t.arena and ld = Ivec.store t.learnt_scratch in
    for i = 0 to nl - 1 do
      c_set_lit ad c i (A1.unsafe_get ld i)
    done;
    Arena.set_lbd t.arena c lbd;
    Ivec.push t.learnts c;
    if nl = 2 then
      Ivec.push2 t.binlog
        (Ivec.unsafe_get t.learnt_scratch 0)
        (Ivec.unsafe_get t.learnt_scratch 1)
    else if nl = 3 && lbd <= t.ternary_lbd_cap then begin
      (* opt-in (portfolio sharing): low-LBD ternaries join the grow-only
         export log; the cap defaults to 0, so a lone solver never logs *)
      Ivec.push t.ternlog (Ivec.unsafe_get t.learnt_scratch 0);
      Ivec.push2 t.ternlog
        (Ivec.unsafe_get t.learnt_scratch 1)
        (Ivec.unsafe_get t.learnt_scratch 2)
    end;
    attach t c;
    bump_clause t c;
    t.stats.learnt_clauses <- t.stats.learnt_clauses + 1;
    enqueue t (Ivec.unsafe_get t.learnt_scratch 0) c
  end

(* Next unassigned variable by activity, or -1 when all are assigned. *)
let rec pick_branch_var t =
  if Var_heap.is_empty t.heap then -1
  else begin
    let v = Var_heap.remove_max t.heap in
    if A1.unsafe_get t.assigns v = code_unknown then v else pick_branch_var t
  end

let model_of t =
  Array.init t.nvars (fun v ->
      if A1.get t.assigns v = code_true then true
      else if A1.get t.assigns v = code_false then false
      else A1.get t.phase v = 1)

let no_interrupt () = false

(* Absent deadlines are +infinity and absent budgets are max_int, so the
   hot checks are plain comparisons with no options to match. *)
let deadline_passed t deadline =
  deadline < infinity
  && t.stats.conflicts land 255 = 0
  && Unix.gettimeofday () > deadline

let interrupted t interrupt =
  t.stats.conflicts land 127 = 0 && interrupt ()

(* CDCL search until SAT/UNSAT, a budget/deadline/interrupt stop, or
   [restart_limit] conflicts (-> [sr_restart]).  A tail-recursive loop
   over int state: one iteration = one propagation fixpoint plus either a
   conflict (analyze, backtrack, learn) or a decision. *)
let rec search t ~restart_limit ~conflicts_here ~budget_left ~deadline ~interrupt =
  let confl = propagate t in
  if confl <> Arena.none then begin
    t.stats.conflicts <- t.stats.conflicts + 1;
    if decision_level t = 0 then begin
      mark_unsat t;
      sr_unsat
    end
    else begin
      analyze t confl;
      if Arena.is_temp t.arena confl then Arena.mark_deleted t.arena confl;
      cancel_until t t.analyze_bt;
      record_learnt t t.analyze_lbd;
      decay_var_activity t;
      decay_clause_activity t;
      if t.stats.conflicts >= budget_left then sr_undecided
      else if deadline_passed t deadline || interrupted t interrupt then sr_undecided
      else if conflicts_here + 1 >= restart_limit then sr_restart
      else
        search t ~restart_limit ~conflicts_here:(conflicts_here + 1) ~budget_left
          ~deadline ~interrupt
    end
  end
  else begin
    if float_of_int (Ivec.size t.learnts) >= t.max_learnts then begin
      reduce_db t;
      t.max_learnts <- t.max_learnts *. t.config.learntsize_inc
    end;
    let v = pick_branch_var t in
    if v < 0 then sr_sat
    else begin
      t.stats.decisions <- t.stats.decisions + 1;
      Ivec.push t.trail_lim t.trail_size;
      t.stats.max_decision_level <- Int.max t.stats.max_decision_level (decision_level t);
      enqueue t ((2 * v) + (1 - A1.unsafe_get t.phase v)) Arena.none;
      search t ~restart_limit ~conflicts_here ~budget_left ~deadline ~interrupt
    end
  end

(* ---------------- audit: internal consistency ---------------- *)

(* Structural invariants of the watching scheme and the trail, checked from
   the outside by the audit layer (lib/audit) and, when the BOSPHORUS_AUDIT
   environment variable opts in, by [solve] itself before searching. *)
let invariant_violations t =
  let a = t.arena in
  let out = ref [] in
  let err fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let watched c p =
    let found = ref false in
    let ws = t.watches.(lit_neg p) in
    let i = ref 0 in
    while !i < Ivec.size ws do
      if Ivec.get ws !i = c then found := true;
      i := !i + 2
    done;
    !found
  in
  let check_clause tag i c =
    let n = Arena.n_lits a c in
    for k = 0 to n - 1 do
      let p = Arena.lit a c k in
      if lit_var p < 0 || lit_var p >= t.nvars then
        err "%s clause %d: literal %d outside the %d-variable range" tag i p t.nvars
    done;
    if Arena.is_deleted a c then
      err "%s clause %d: deleted clause still referenced from the live vector" tag i;
    if n >= 2 then begin
      if not (watched c (Arena.lit a c 0)) then
        err "%s clause %d: not on the watch list of its first literal %d" tag i
          (Arena.lit a c 0);
      if not (watched c (Arena.lit a c 1)) then
        err "%s clause %d: not on the watch list of its second literal %d" tag i
          (Arena.lit a c 1)
    end
  in
  let idx = ref 0 in
  Ivec.iter (fun c -> check_clause "problem" !idx c; incr idx) t.clauses;
  idx := 0;
  Ivec.iter (fun c -> check_clause "learnt" !idx c; incr idx) t.learnts;
  for l = 0 to (2 * t.nvars) - 1 do
    let ws = t.watches.(l) in
    if Ivec.size ws land 1 = 1 then
      err "watch list of literal %d: odd number of watcher words" l;
    let i = ref 0 in
    while !i + 1 < Ivec.size ws do
      let c = Ivec.get ws !i and blocker = Ivec.get ws (!i + 1) in
      i := !i + 2;
      (* watchers of deleted clauses are legal: they are dropped lazily *)
      if not (Arena.is_deleted a c) then begin
        if Arena.n_lits a c < 2 then
          err "watch list of literal %d: clause with %d literals" l (Arena.n_lits a c)
        else begin
          if Arena.lit a c 0 <> lit_neg l && Arena.lit a c 1 <> lit_neg l then
            err "watch list of literal %d: clause does not watch that literal" l;
          let in_clause = ref false in
          for k = 0 to Arena.n_lits a c - 1 do
            if Arena.lit a c k = blocker then in_clause := true
          done;
          if not !in_clause then
            err "watch list of literal %d: blocker %d not in the clause" l blocker
        end
      end
    done
  done;
  if t.qhead > t.trail_size then
    err "propagation head %d beyond the trail size %d" t.qhead t.trail_size;
  let seen_vars = Hashtbl.create 64 in
  for i = 0 to t.trail_size - 1 do
    let p = A1.get t.trail i in
    let v = lit_var p in
    if Hashtbl.mem seen_vars v then err "variable %d appears twice on the trail" v;
    Hashtbl.replace seen_vars v ();
    let expected = p land 1 in
    if A1.get t.assigns v <> expected then
      err "trail literal %d disagrees with the assignment of variable %d" p v
  done;
  List.iter (fun s -> err "%s" s) (Parity.invariant_violations t.parity);
  List.rev !out

(* Domain-safety note: a solver instance is confined to the domain that
   uses it — all search state lives in [t]; this module keeps no mutable
   globals, so independent instances may run on concurrent domains
   (portfolio seats and daemon workers rely on this).  The audit flag is read
   eagerly rather than via [lazy]: Lazy.force from several domains races
   (Lazy.RacyLazy). *)
let audit_hooks =
  match Sys.getenv_opt "BOSPHORUS_AUDIT" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let self_check t =
  if audit_hooks then
    match invariant_violations t with
    | [] -> ()
    | v :: _ -> failwith ("Solver invariant violated: " ^ v)

(* Level-0 parity assimilation: run the Gauss-Jordan pass over the parity
   rows, enqueue the implied units, propagate, and repeat while new root
   facts keep feeding the substitution.  Returns [false] on a root-level
   inconsistency (the caller marks the solver UNSAT).  Only called with
   the trail at decision level 0 (solve entry and restart boundaries), so
   [t.trail_size] is the root-unit count.  Each unit and an inconsistent
   row set are logged as parity steps: they carry no reason clause. *)
let rec assimilate t =
  if Parity.n_live t.parity = 0 && not (Parity.dirty t.parity) then true
  else if (not (Parity.dirty t.parity)) && t.trail_size <= t.parity_hwm then true
  else begin
    t.parity_hwm <- t.trail_size;
    t.stats.gauss_rounds <- t.stats.gauss_rounds + 1;
    if not (Parity.gauss t.parity ~assigns:t.assigns) then begin
      log_step t (Proof.Parity []);
      false
    end
    else if not (enqueue_gauss_units t 0 (Parity.n_units t.parity)) then false
    else if propagate t <> Arena.none then false
    else assimilate t
  end

and enqueue_gauss_units t i n =
  if i >= n then true
  else begin
    let pl = Parity.unit_lit t.parity i in
    let code = lit_code t pl in
    if t.proof_enabled && code <> code_true then
      log_step t (Proof.Parity [ Cnf.Lit.of_index pl ]);
    if code = code_false then false
    else begin
      if code = code_unknown then enqueue t pl Arena.none;
      enqueue_gauss_units t (i + 1) n
    end
  end

let solve_inner ?conflict_budget ?time_budget_s ?interrupt t =
  if not t.ok then Unsat
  else if (match interrupt with Some f -> f () | None -> false) then Undecided
  else begin
    self_check t;
    cancel_until t 0;
    t.max_learnts <-
      Float.max 1000.0
        (t.config.learntsize_factor *. float_of_int (Ivec.size t.clauses));
    let budget_left =
      match conflict_budget with Some b -> t.stats.conflicts + b | None -> max_int
    in
    let deadline =
      match time_budget_s with Some s -> Unix.gettimeofday () +. s | None -> infinity
    in
    let interrupt = match interrupt with Some f -> f | None -> no_interrupt in
    if propagate t <> Arena.none || not (assimilate t) then begin
      mark_unsat t;
      Unsat
    end
    else begin
      let rec run restart_no =
        let limit =
          if t.config.use_luby then
            int_of_float (luby 2.0 restart_no *. float_of_int t.config.restart_first)
          else
            int_of_float
              (float_of_int t.config.restart_first *. (t.config.restart_inc ** float_of_int restart_no))
        in
        let r =
          search t ~restart_limit:(Int.max 1 limit) ~conflicts_here:0 ~budget_left
            ~deadline ~interrupt
        in
        if r = sr_restart then begin
          t.stats.restarts <- t.stats.restarts + 1;
          cancel_until t 0;
          if assimilate t then run (restart_no + 1)
          else begin
            mark_unsat t;
            sr_unsat
          end
        end
        else r
      in
      let rc = run 0 in
      (* extract the model before the final backtrack wipes it *)
      let result =
        if rc = sr_sat then Sat (model_of t)
        else if rc = sr_unsat then Unsat
        else Undecided
      in
      cancel_until t 0;
      result
    end
  end

(* Per-round observability: the whole solve is one span, and the round's
   work shows up as deltas on process-global counters (the solver's own
   [stats] stay cumulative per instance, which is what the driver's
   round accounting diffs). *)
let m_propagations = Obs.Metrics.counter "sat.propagations"
let m_watch_visits = Obs.Metrics.counter "sat.watch_visits"
let m_blocker_hits = Obs.Metrics.counter "sat.blocker_hits"
let m_conflicts = Obs.Metrics.counter "sat.conflicts"
let m_restarts = Obs.Metrics.counter "sat.restarts"
let m_decisions = Obs.Metrics.counter "sat.decisions"
let m_parity_props = Obs.Metrics.counter "sat.parity_propagations"
let m_parity_conflicts = Obs.Metrics.counter "sat.parity_conflicts"
let m_gauss_rounds = Obs.Metrics.counter "sat.gauss_rounds"

let solve ?conflict_budget ?time_budget_s ?interrupt t =
  Obs.Trace.with_span ~name:"sat.solve" @@ fun () ->
  let s = t.stats in
  let p0 = s.propagations
  and wv0 = s.watch_visits
  and bh0 = s.blocker_hits
  and c0 = s.conflicts
  and r0 = s.restarts
  and d0 = s.decisions
  and pp0 = s.parity_propagations
  and pc0 = s.parity_conflicts
  and g0 = s.gauss_rounds in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.incr m_propagations ~by:(s.propagations - p0);
      Obs.Metrics.incr m_watch_visits ~by:(s.watch_visits - wv0);
      Obs.Metrics.incr m_blocker_hits ~by:(s.blocker_hits - bh0);
      Obs.Metrics.incr m_conflicts ~by:(s.conflicts - c0);
      Obs.Metrics.incr m_restarts ~by:(s.restarts - r0);
      Obs.Metrics.incr m_decisions ~by:(s.decisions - d0);
      Obs.Metrics.incr m_parity_props ~by:(s.parity_propagations - pp0);
      Obs.Metrics.incr m_parity_conflicts ~by:(s.parity_conflicts - pc0);
      Obs.Metrics.incr m_gauss_rounds ~by:(s.gauss_rounds - g0))
    (fun () -> solve_inner ?conflict_budget ?time_budget_s ?interrupt t)

let probe t l =
  if not t.ok then `Unusable
  else begin
    cancel_until t 0;
    if propagate t <> Arena.none then begin
      mark_unsat t;
      `Unusable
    end
    else begin
      let p = Cnf.Lit.to_index l in
      if lit_code t p <> code_unknown then `Unusable
      else begin
        Ivec.push t.trail_lim t.trail_size;
        let base = t.trail_size in
        enqueue t p Arena.none;
        let outcome =
          if propagate t <> Arena.none then `Conflict
          else
            `Implied
              (List.init (t.trail_size - base - 1) (fun i ->
                   Cnf.Lit.of_index (A1.get t.trail (base + 1 + i))))
        in
        cancel_until t 0;
        outcome
      end
    end
  end

(* Allocation-gate hook (bench micro --alloc-gate and the GC regression
   test): redo the implication chain of decision literal [p] [reps]
   times — push a decision level, enqueue, propagate to fixpoint,
   backtrack — and return the total number of literals assigned.  After a
   warm-up burst has grown every store to its high-water capacity, a
   repeat burst must allocate exactly zero minor words. *)
let rec burst_propagate_loop t p reps acc =
  if reps = 0 then acc
  else if lit_code t p <> code_unknown then acc
  else begin
    Ivec.push t.trail_lim t.trail_size;
    let base = t.trail_size in
    let _confl = propagate_after_enqueue t p in
    let assigned = t.trail_size - base in
    cancel_until t 0;
    burst_propagate_loop t p (reps - 1) (acc + assigned)
  end

and propagate_after_enqueue t p =
  enqueue t p Arena.none;
  propagate t

let burst_propagate t l ~reps =
  if not t.ok then 0
  else begin
    cancel_until t 0;
    burst_propagate_loop t (Cnf.Lit.to_index l) reps 0
  end

let okay t = t.ok

let root_units t =
  (* after cancel_until 0 the entire trail is level-0 facts *)
  let upto = if decision_level t = 0 then t.trail_size else Ivec.get t.trail_lim 0 in
  List.init upto (fun i -> Cnf.Lit.of_index (A1.get t.trail i))

let n_root_units t =
  if decision_level t = 0 then t.trail_size else Ivec.get t.trail_lim 0

let root_units_from t k =
  let upto = n_root_units t in
  let k = Int.max 0 (Int.min k upto) in
  List.init (upto - k) (fun i -> Cnf.Lit.of_index (A1.get t.trail (k + i)))

let n_learnt_binaries t = Ivec.size t.binlog / 2

let learnt_binaries_from t k =
  let n = n_learnt_binaries t in
  let k = Int.max 0 (Int.min k n) in
  List.init (n - k) (fun i ->
      ( Cnf.Lit.of_index (Ivec.get t.binlog (2 * (k + i))),
        Cnf.Lit.of_index (Ivec.get t.binlog ((2 * (k + i)) + 1)) ))

let learnt_binaries t = learnt_binaries_from t 0

let learnt_clauses t =
  let a = t.arena in
  let acc = ref [] in
  Ivec.iter
    (fun c ->
      acc :=
        List.init (Arena.n_lits a c) (fun i -> Cnf.Lit.of_index (Arena.lit a c i)) :: !acc)
    t.learnts;
  List.rev !acc

(* ---------------- portfolio hooks: clone, jitter, clause exchange ----- *)

let copy_iarr (a : iarr) : iarr =
  let b = A1.create Bigarray.int Bigarray.c_layout (A1.dim a) in
  A1.blit a b;
  b

let copy_farr (a : farr) : farr =
  let b = A1.create Bigarray.float64 Bigarray.c_layout (A1.dim a) in
  A1.blit a b;
  b

(* Deep copy for portfolio workers: every mutable store is blitted, so
   until configs, phases or imported clauses make them diverge, clone and
   source walk bit-identical trajectories.  [config] swaps the search
   tunables; the write-once proof log is shared structurally. *)
let clone ?config t =
  let config = Option.value config ~default:t.config in
  let activity = copy_farr t.activity in
  {
    config;
    nvars = t.nvars;
    arena = Arena.snapshot t.arena;
    clauses = Ivec.copy t.clauses;
    learnts = Ivec.copy t.learnts;
    binlog = Ivec.copy t.binlog;
    ternlog = Ivec.copy t.ternlog;
    ternary_lbd_cap = t.ternary_lbd_cap;
    imp_l0 = -1;
    imp_l1 = -1;
    imp_l2 = -1;
    imp_keep = 0;
    imp_sat = false;
    watches = Ivec.copy_array t.watches;
    assigns = copy_iarr t.assigns;
    phase = copy_iarr t.phase;
    activity;
    reason = copy_iarr t.reason;
    level = copy_iarr t.level;
    trail = copy_iarr t.trail;
    trail_size = t.trail_size;
    trail_lim = Ivec.copy t.trail_lim;
    qhead = t.qhead;
    heap = Var_heap.copy t.heap activity;
    ok = t.ok;
    incs = copy_farr t.incs;
    seen = copy_iarr t.seen;
    max_learnts = t.max_learnts;
    parity = Parity.copy t.parity;
    parity_hwm = t.parity_hwm;
    parity_scratch = Ivec.copy t.parity_scratch;
    proof_enabled = t.proof_enabled;
    proof_log = t.proof_log;
    prop_conflict = t.prop_conflict;
    analyze_scratch = Ivec.copy t.analyze_scratch;
    learnt_scratch = Ivec.copy t.learnt_scratch;
    analyze_bt = t.analyze_bt;
    analyze_lbd = t.analyze_lbd;
    lbd_stamp = copy_iarr t.lbd_stamp;
    stamp = t.stamp;
    redu_seen = copy_iarr t.redu_seen;
    redu_val = copy_iarr t.redu_val;
    redu_epoch = t.redu_epoch;
    stats = copy_stats t.stats;
  }

(* Deterministic xorshift64 over the saved phases: cheap diversification
   for portfolio workers (a different initial polarity steers the first
   descent into a different region of the search tree).  Seed 0 is mapped
   away from the generator's all-zeros fixed point. *)
let randomize_phases t ~seed =
  let s = ref (if seed = 0 then 0x2545F4914F6CDD1D else seed) in
  for v = 0 to t.nvars - 1 do
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    A1.set t.phase v (x land 1)
  done

(* Raw views of the grow-only export logs, in packed-literal form: the
   portfolio's export path copies words straight from these into its
   exchange lanes without building intermediate lists. *)
let root_unit_packed t i = A1.get t.trail i
let binlog_words t = Ivec.size t.binlog
let binlog_word t k = Ivec.get t.binlog k
let ternlog_words t = Ivec.size t.ternlog
let ternlog_word t k = Ivec.get t.ternlog k
let set_ternary_export t ~max_lbd = t.ternary_lbd_cap <- max_lbd

let note_exported t n =
  t.stats.exported_clauses <- t.stats.exported_clauses + n

(* Adopt a clause learnt by another portfolio worker; level-0 only (the
   portfolio calls it between [solve] slices, after the restart-boundary
   interrupt).  The up-to-three packed literals are root-simplified in
   scalar slots — no list or array is built: satisfied clauses are
   dropped, false literals removed, survivors dispatched as unit / binary
   / ternary.  Imported clauses enter the database as learnts with LBD =
   length but are never echoed into this solver's binary/ternary export
   logs (the exchange already holds them) and are not added to the proof
   log (they are not RUP against this solver's database at import time;
   the exchange is certified globally instead — see Audit/tests).
   Returns [false] once the solver is root-UNSAT. *)
let import_consider t p =
  if not t.imp_sat then begin
    if lit_var p >= t.nvars then begin
      grow_arrays t (lit_var p + 1);
      for v = t.nvars to lit_var p do
        Var_heap.insert t.heap v
      done;
      t.nvars <- lit_var p + 1
    end;
    let code = lit_code t p in
    if code = code_true then t.imp_sat <- true
    else if code = code_false then ()
    else if p = t.imp_l0 || p = t.imp_l1 || p = t.imp_l2 then () (* duplicate *)
    else if lit_neg p = t.imp_l0 || lit_neg p = t.imp_l1 || lit_neg p = t.imp_l2
    then t.imp_sat <- true (* tautology *)
    else begin
      (if t.imp_keep = 0 then t.imp_l0 <- p
       else if t.imp_keep = 1 then t.imp_l1 <- p
       else t.imp_l2 <- p);
      t.imp_keep <- t.imp_keep + 1
    end
  end

let import_packed t ~a ~b ~c ~n =
  if not t.ok then false
  else begin
    assert (decision_level t = 0);
    t.imp_l0 <- -1;
    t.imp_l1 <- -1;
    t.imp_l2 <- -1;
    t.imp_keep <- 0;
    t.imp_sat <- false;
    import_consider t a;
    if n >= 2 then import_consider t b;
    if n >= 3 then import_consider t c;
    if t.imp_sat then true
    else
      match t.imp_keep with
      | 0 ->
          mark_unsat t;
          false
      | 1 ->
          enqueue t t.imp_l0 Arena.none;
          if propagate t <> Arena.none then begin
            mark_unsat t;
            false
          end
          else begin
            t.stats.imported_clauses <- t.stats.imported_clauses + 1;
            true
          end
      | nk ->
          let cr = Arena.alloc_blank t.arena ~learnt:true ~temp:false nk in
          Arena.set_lit t.arena cr 0 t.imp_l0;
          Arena.set_lit t.arena cr 1 t.imp_l1;
          if nk = 3 then Arena.set_lit t.arena cr 2 t.imp_l2;
          Arena.set_lbd t.arena cr nk;
          Ivec.push t.learnts cr;
          attach t cr;
          t.stats.imported_clauses <- t.stats.imported_clauses + 1;
          true
  end

(* Test/diagnostic hooks for the arena lifecycle. *)
let reduce_learnts t = reduce_db t
let arena_bytes t = Arena.capacity_bytes t.arena
let arena_wasted_words t = Arena.wasted t.arena
let n_live_learnts t = Ivec.size t.learnts

let stats t = t.stats

(* ---------------- parity diagnostics ---------------- *)

let n_parity_rows t = Parity.n_live t.parity
