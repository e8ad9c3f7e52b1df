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

module Ptbl = Hashtbl.Make (struct
  type t = P.t

  let equal = P.equal
  let hash = P.hash
end)

(* Every polynomial, then its products, deduplicated in first-occurrence
   order.  A tripped budget stops the expansion at its next poll; the
   products found so far are kept — each is a sound consequence on its
   own, so a partial expansion only loses facts. *)
let expand ?budget ~multipliers polys =
  let seen = Ptbl.create 64 in
  let out = ref [] in
  let push p =
    (match budget with
    | Some b -> Harness.Budget.poll b ~layer:"xl"
    | None -> ());
    if (not (P.is_zero p)) && not (Ptbl.mem seen p) then begin
      Ptbl.replace seen p ();
      out := p :: !out
    end
  in
  (try
     List.iter
       (fun p ->
         push p;
         List.iter (fun m -> push (P.mul_monomial p m)) multipliers)
       polys
   with Harness.Budget.Tripped _ -> ());
  List.rev !out

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

module Mtbl = Hashtbl.Make (struct
  type t = M.t

  let equal = M.equal
  let hash = M.hash
end)

(* Greedily take shuffled polynomials while the linearised size (rows x
   distinct monomials) stays below the budget; always take at least one. *)
let subsample ~rng ~cell_budget polys =
  let arr = Array.of_list polys in
  shuffle rng arr;
  let mono_seen = Mtbl.create 64 in
  let cols = ref 0 in
  let taken = ref [] in
  let rows = ref 0 in
  Array.iter
    (fun p ->
      let new_monos =
        List.filter (fun m -> not (Mtbl.mem mono_seen m)) (P.monomials p)
      in
      let cells' = (!rows + 1) * (!cols + List.length new_monos) in
      if !rows = 0 || cells' <= cell_budget then begin
        taken := p :: !taken;
        incr rows;
        List.iter
          (fun m ->
            Mtbl.replace mono_seen m ();
            incr cols)
          new_monos
      end)
    arr;
  List.rev !taken

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
  let seen = Ptbl.create 64 in
  let mono_seen = Mtbl.create 64 in
  let cols = ref 0 in
  let rows = ref [] in
  let nrows = ref 0 in
  (* the global budget's monomial gauge: whatever the caller already
     accounts for, plus this expansion's distinct columns *)
  let gauge_base = match budget with Some b -> Harness.Budget.cells b | None -> 0 in
  let push p =
    (match budget with
    | Some b ->
        Harness.Budget.set_cells b (gauge_base + !cols);
        Harness.Budget.poll b ~layer:"xl"
    | None -> ());
    if (not (P.is_zero p)) && not (Ptbl.mem seen p) then begin
      Ptbl.replace seen p ();
      rows := p :: !rows;
      incr nrows;
      List.iter
        (fun m ->
          if not (Mtbl.mem mono_seen m) then begin
            Mtbl.replace mono_seen m ();
            incr cols
          end)
        (P.monomials p)
    end
  in
  let trip =
    Obs.Trace.with_span ~name:"xl.expand_chunk" @@ fun () ->
    match
      (* entry check so even tiny passes (whose amortized polls may never
         reach a full check) notice deadlines and injected faults *)
      (match budget with
      | Some b -> Harness.Budget.check b ~layer:"xl"
      | None -> ());
      List.iter push by_degree;
      List.iter
        (fun p ->
          List.iter
            (fun m ->
              if !nrows * !cols >= expand_budget then raise Exit;
              push (P.mul_monomial p m))
            mults)
        by_degree
    with
    | () | (exception Exit) -> None
    | exception Harness.Budget.Tripped t -> Some t
  in
  let expanded = List.rev !rows in
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
        expanded_rows = List.length expanded;
        columns = !cols;
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
            let r = Linearize.reduce ~jobs:config.jobs ~poll ~keep:fact_shaped expanded in
            (r, retain_facts r.Linearize.rows))
      with
      | r, facts ->
          {
            facts;
            sampled = List.length sample;
            expanded_rows = List.length expanded;
            columns = r.Linearize.n_columns;
            rank = r.Linearize.rank;
          }
      | exception Harness.Budget.Tripped _ ->
          {
            facts = [];
            sampled = List.length sample;
            expanded_rows = List.length expanded;
            columns = !cols;
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
