(* Reference implementations of the linearisation the library now does
   through dense monomial ids: the hash-table [Linearize.build] (a
   [Hashtbl] over monomials, one sort of the column list, a lookup per
   occurrence), [Linearize.reduce] on top of it, and [Xl.run]'s
   expansion keyed on whole polynomials.  The property tests check that
   the library returns exactly what these return. *)

module P = Anf.Poly
module M = Anf.Monomial
module B = Bosphorus

module Mtbl = Hashtbl.Make (struct
  type t = M.t

  let equal = M.equal
  let hash = M.hash
end)

(* Every distinct monomial of [polys], each bound to 0. *)
let distinct polys =
  let seen = Mtbl.create 64 in
  List.iter
    (fun p -> List.iter (fun m -> Mtbl.replace seen m 0) (Anf.Poly.monomials p))
    polys;
  seen

let build polys =
  let index = distinct polys in
  let columns =
    Array.of_list (List.sort M.compare (Mtbl.fold (fun m _ acc -> m :: acc) index []))
  in
  (* rebinding existing keys to their column never resizes the table *)
  Array.iteri (fun i m -> Mtbl.replace index m i) columns;
  let n_rows = List.length polys and ncols = Array.length columns in
  (* one row per polynomial, its bits set in place in the matrix's own
     row *)
  let matrix = Gf2.Matrix.create ~rows:n_rows ~cols:ncols in
  List.iteri
    (fun r p ->
      let row = Gf2.Matrix.row matrix r in
      List.iter (fun m -> Gf2.Bitvec.set row (Mtbl.find index m) true) (Anf.Poly.monomials p))
    polys;
  (columns, matrix)

let poly_of_row columns row =
  P.of_monomials (Gf2.Bitvec.fold_set row [] (fun acc i -> columns.(i) :: acc))

(* [Linearize.reduce] over the hash-table build. *)
let reduce ?poll ?(keep = fun _ _ -> true) polys =
  let columns, matrix = build polys in
  let rank = Gf2.Matrix.rref_m4rm ?poll matrix in
  (* [keep] takes the library's column basis, built by the library from
     the same polynomials *)
  let keep = keep (fst (B.Linearize.build polys)) in
  let rows = ref [] in
  for i = rank - 1 downto 0 do
    let row = Gf2.Matrix.row matrix i in
    if keep row then rows := poly_of_row columns row :: !rows
  done;
  { B.Linearize.n_columns = Array.length columns; rank; rows = !rows }

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

(* [Xl.subsample] over a monomial hash table. *)
let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

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

(* [Xl.run]'s report, by the polynomial-table expansion and the oracle
   reduction. *)
let run ~config ~rng ?budget polys =
  let open B.Config in
  let cell_budget = 1 lsl config.xl_sample_bits in
  let expand_budget = 1 lsl (config.xl_sample_bits + config.xl_expand_bits) in
  let sample = subsample ~rng ~cell_budget polys in
  let vars =
    List.sort_uniq Int.compare (List.concat_map P.vars sample)
  in
  let mults = B.Xl.multipliers ~vars ~degree:config.xl_degree in
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
        B.Xl.facts = [];
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
            let r = reduce ~poll ~keep:B.Xl.fact_shaped expanded in
            (r, B.Xl.retain_facts r.B.Linearize.rows))
      with
      | r, facts ->
          {
            B.Xl.facts;
            sampled = List.length sample;
            expanded_rows = List.length expanded;
            columns = r.B.Linearize.n_columns;
            rank = r.B.Linearize.rank;
          }
      | exception Harness.Budget.Tripped _ ->
          {
            B.Xl.facts = [];
            sampled = List.length sample;
            expanded_rows = List.length expanded;
            columns = !cols;
            rank = 0;
          })

