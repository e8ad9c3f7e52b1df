module P = Anf.Poly
module M = Anf.Monomial

type report = {
  facts : P.t list;
  sampled : int;
  expanded_rows : int;
  columns : int;
  rank : int;
}

let multipliers ~vars ~degree =
  (* all monomials of degree 1..degree over [vars], by combinations *)
  let vars = Array.of_list (List.sort_uniq Int.compare vars) in
  let n = Array.length vars in
  let rec combos k start =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun i -> List.map (fun rest -> vars.(i) :: rest) (combos (k - 1) (i + 1)))
        (List.init (max 0 (n - start)) (fun i -> start + i))
  in
  List.concat_map
    (fun d -> List.map M.of_vars (combos d 0))
    (List.init degree (fun i -> i + 1))

let retain_facts polys =
  List.filter
    (fun p ->
      (not (P.is_zero p))
      && (P.is_linear p || match P.classify p with P.All_ones _ -> true | _ -> false))
    polys

(* Which reduced rows can convert to a retained fact, decided on the bits.
   Columns are in graded order (higher degree leftmost, the constant 1
   last), so a row is linear iff its first set bit lies at or past the
   first column of degree <= 1, and an all-ones fact [m + 1] is a row of
   two set bits whose last is the constant column.  The test keeps every
   row [retain_facts] keeps, so filtering the converted rows again gives
   the same facts in the same order. *)
let fact_shaped lin =
  let cols = Linearize.columns lin in
  let n = Array.length cols in
  let rec first_linear i = if i >= n || M.degree cols.(i) <= 1 then i else first_linear (i + 1) in
  let linear_from = first_linear 0 in
  let has_constant = n > 0 && M.is_one cols.(n - 1) in
  fun row ->
    match Gf2.Bitvec.first_set row with
    | None -> false
    | Some c ->
        c >= linear_from
        || (has_constant && Gf2.Bitvec.get row (n - 1) && Gf2.Bitvec.popcount row = 2)

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* Greedily take shuffled polynomials while the linearised size (rows x
   distinct monomials) stays below the budget; always take at least one.
   A monomial is seen once a taken polynomial has it: [seen] flags ids. *)
let subsample ~rng ~cell_budget polys =
  (* filled from the static zero polynomial, not [Array.of_list]: see
     DESIGN.md on arrays of fresh blocks *)
  let arr = Array.make (List.length polys) P.zero in
  List.iteri (fun i p -> arr.(i) <- p) polys;
  shuffle rng arr;
  let ids = M.Ids.create ~size_hint:(Array.length arr) () in
  let seen = ref (Bytes.make 64 '\000') in
  let is_seen id = id < Bytes.length !seen && Bytes.get !seen id <> '\000' in
  let cols = ref 0 in
  let taken = ref [] in
  let rows = ref 0 in
  Array.iter
    (fun p ->
      let n = P.n_terms p in
      let term_ids = Array.init n (fun j -> M.Ids.intern ids (P.term p j)) in
      let n_new = Array.fold_left (fun acc id -> if is_seen id then acc else acc + 1) 0 term_ids in
      let cells' = (!rows + 1) * (!cols + n_new) in
      if !rows = 0 || cells' <= cell_budget then begin
        taken := p :: !taken;
        incr rows;
        cols := !cols + n_new;
        if M.Ids.count ids > Bytes.length !seen then begin
          let wider = Bytes.make (2 * M.Ids.count ids) '\000' in
          Bytes.blit !seen 0 wider 0 (Bytes.length !seen);
          seen := wider
        end;
        Array.iter (fun id -> Bytes.set !seen id '\001') term_ids
      end)
    arr;
  List.rev !taken

(* The expansion's rows as ascending arrays of monomial ids, each kept
   once, numbered in first-occurrence order by an [Anf.Intern] table.
   [used] flags the ids some kept row contains and [cols] counts them:
   the linearised width the rows x columns stop test and the budget's
   gauge read. *)
module Rows = struct
  type t = { tbl : Anf.Intern.t; mutable used : Bytes.t; mutable cols : int }

  let create () = { tbl = Anf.Intern.create ~size_hint:64 (); used = Bytes.make 64 '\000'; cols = 0 }
  let count t = Anf.Intern.count t.tbl

  let mark_used t id =
    if id >= Bytes.length t.used then begin
      let wider = Bytes.make (Int.max (id + 1) (2 * Bytes.length t.used)) '\000' in
      Bytes.blit t.used 0 wider 0 (Bytes.length t.used);
      t.used <- wider
    end;
    if Bytes.get t.used id = '\000' then begin
      Bytes.set t.used id '\001';
      t.cols <- t.cols + 1
    end

  (* Adds the row a.(0 .. n-1) (ascending, nonempty) unless it is kept
     already. *)
  let add t (a : int array) n =
    let s = Anf.Intern.slot t.tbl a n in
    if Anf.Intern.id_at t.tbl s < 0 then begin
      let row = Array.sub a 0 n in
      ignore (Anf.Intern.insert t.tbl s row);
      for j = 0 to n - 1 do
        mark_used t row.(j)
      done
    end
end

(* Sorts buf.(0 .. n-1) ascending and cancels equal pairs (GF(2)),
   returning the length left.  A row is one polynomial's few terms, so an
   insertion sort; nothing is allocated. *)
let rec insert_down (buf : int array) x j =
  if j >= 0 && Array.unsafe_get buf j > x then begin
    Array.unsafe_set buf (j + 1) (Array.unsafe_get buf j);
    insert_down buf x (j - 1)
  end
  else Array.unsafe_set buf (j + 1) x

let rec cancel_pairs (buf : int array) n i k =
  if i >= n then k
  else if i + 1 < n && Array.unsafe_get buf i = Array.unsafe_get buf (i + 1) then
    cancel_pairs buf n (i + 2) k
  else begin
    Array.unsafe_set buf k (Array.unsafe_get buf i);
    cancel_pairs buf n (i + 1) (k + 1)
  end

let sort_cancel (buf : int array) n =
  if n > Array.length buf then invalid_arg "Xl.sort_cancel";
  for i = 1 to n - 1 do
    insert_down buf (Array.unsafe_get buf i) (i - 1)
  done;
  cancel_pairs buf n 0 0

let run_impl ~config ~rng ?budget polys =
  let open Config in
  let cell_budget = 1 lsl config.xl_sample_bits in
  let expand_budget = 1 lsl (config.xl_sample_bits + config.xl_expand_bits) in
  let sample = subsample ~rng ~cell_budget polys in
  let vars =
    List.sort_uniq Int.compare (List.concat_map P.vars sample)
  in
  let mults = multipliers ~vars ~degree:config.xl_degree in
  (* incremental expansion in ascending degree order, bounded by the
     expansion budget *)
  let by_degree = List.sort (fun a b -> Int.compare (P.degree a) (P.degree b)) sample in
  (* every monomial of the expansion is interned once; a row is the
     ascending ids of its monomials *)
  let terms = List.fold_left (fun acc p -> acc + P.n_terms p) 0 sample in
  let ids = M.Ids.create ~size_hint:(2 * terms) () in
  let rows = Rows.create () in
  let buf = ref (Array.make 16 0) in
  let reserve n = if Array.length !buf < n then buf := Array.make (2 * n) 0 in
  (* the global budget's monomial gauge: whatever the caller already
     accounts for, plus this expansion's distinct columns *)
  let gauge_base = match budget with Some b -> Harness.Budget.cells b | None -> 0 in
  (* a polynomial's ids are in !buf.(0 .. n-1) *)
  let push n =
    (match budget with
    | Some b ->
        Harness.Budget.set_cells b (gauge_base + rows.Rows.cols);
        Harness.Budget.poll b ~layer:"xl"
    | None -> ());
    let n = sort_cancel !buf n in
    if n > 0 then Rows.add rows !buf n
  in
  let trip =
    Obs.Trace.with_span ~name:"xl.expand_chunk" @@ fun () ->
    match
      (* entry check so even tiny passes (whose amortized polls may never
         reach a full check) notice deadlines and injected faults *)
      (match budget with
      | Some b -> Harness.Budget.check b ~layer:"xl"
      | None -> ());
      List.iter
        (fun p ->
          let n = P.n_terms p in
          reserve n;
          for j = 0 to n - 1 do
            !buf.(j) <- M.Ids.intern ids (P.term p j)
          done;
          push n)
        by_degree;
      List.iter
        (fun p ->
          let n = P.n_terms p in
          reserve n;
          List.iter
            (fun m ->
              if Rows.count rows * rows.Rows.cols >= expand_budget then raise Exit;
              for j = 0 to n - 1 do
                !buf.(j) <- M.Ids.intern_mul ids (P.term p j) m
              done;
              push n)
            mults)
        by_degree
    with
    | () | (exception Exit) -> None
    | exception Harness.Budget.Tripped t -> Some t
  in
  let nrows = Rows.count rows and cols = rows.Rows.cols in
  match trip with
  | Some { Harness.Budget.kind = Harness.Budget.Time | Harness.Budget.Injected
         | Harness.Budget.Conflicts | Harness.Budget.Cancelled; _ } ->
      (* out of time (or deliberately faulted): the linearise-and-reduce
         step on the partial expansion could itself blow the deadline, so
         return no facts this round — the facts already in the master are
         untouched, and the driver reports the degradation. *)
      {
        facts = [];
        sampled = List.length sample;
        expanded_rows = nrows;
        columns = cols;
        rank = 0;
      }
  | Some { Harness.Budget.kind = Harness.Budget.Memory; _ } | None -> (
      (* within budget, or memory-tripped: the ceiling itself bounds the
         partial expansion, so reducing it is affordable and every
         resulting row is a sound consequence.  The reduction itself is
         still polled per column block — the deadline can pass mid-RREF —
         and a trip there degrades to the no-facts report. *)
      let poll () =
        match budget with
        | Some b -> Harness.Budget.poll b ~layer:"xl"
        | None -> ()
      in
      match
        Obs.Trace.with_span ~name:"xl.linearize_reduce" (fun () ->
            let r =
              Linearize.reduce_ids ~jobs:config.jobs ~poll ~keep:fact_shaped ids
                (Anf.Intern.store rows.Rows.tbl) nrows
            in
            (r, retain_facts r.Linearize.rows))
      with
      | r, facts ->
          {
            facts;
            sampled = List.length sample;
            expanded_rows = nrows;
            columns = r.Linearize.n_columns;
            rank = r.Linearize.rank;
          }
      | exception Harness.Budget.Tripped _ ->
          {
            facts = [];
            sampled = List.length sample;
            expanded_rows = nrows;
            columns = cols;
            rank = 0;
          })

let m_sampled = Obs.Metrics.counter "xl.sampled_polys"
let m_expanded = Obs.Metrics.counter "xl.expanded_rows"
let m_facts = Obs.Metrics.counter "xl.facts"
let g_columns = Obs.Metrics.gauge "xl.columns"

let run ~config ~rng ?budget polys =
  Obs.Trace.with_span ~name:"xl.run" @@ fun () ->
  let r = run_impl ~config ~rng ?budget polys in
  Obs.Metrics.incr m_sampled ~by:r.sampled;
  Obs.Metrics.incr m_expanded ~by:r.expanded_rows;
  Obs.Metrics.incr m_facts ~by:(List.length r.facts);
  (* distinct monomial columns of this pass: the degree/monomial profile
     of the expansion, peak retained across passes *)
  Obs.Metrics.set_gauge g_columns r.columns;
  r
