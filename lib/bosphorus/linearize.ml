module M = Anf.Monomial
module Ids = M.Ids

type t = { columns : M.t array }

let g_columns = Obs.Metrics.gauge "linearize.columns"
let g_rows = Obs.Metrics.gauge "linearize.rows"

(* The ids the first [n] rows use, each once, in first-use order: stores
   them in [used] and returns how many.  [col] starts all -1 and a used
   id's slot is set to 0 as it is first met. *)
let rec collect_used (rows : int array array) n (col : int array) (used : int array) r j k =
  if r >= n then k
  else
    let row = Array.unsafe_get rows r in
    if j >= Array.length row then collect_used rows n col used (r + 1) 0 k
    else
      let id = Array.unsafe_get row j in
      if Array.unsafe_get col id < 0 then begin
        Array.unsafe_set col id 0;
        Array.unsafe_set used k id;
        collect_used rows n col used r (j + 1) (k + 1)
      end
      else collect_used rows n col used r (j + 1) k

let build_ids ids rows n =
  Obs.Trace.with_span ~name:"linearize.build" @@ fun () ->
  if n > Array.length rows then invalid_arg "Linearize.build_ids: more rows than given";
  let nids = Int.max 1 (Ids.count ids) in
  (* col: id -> column; used: the used ids, then sorted into column order *)
  let col = Array.make nids (-1) and used = Array.make nids 0 in
  let ncols = collect_used rows n col used 0 0 0 in
  Ids.sort_graded ids used ncols;
  let columns = Array.make ncols M.one in
  for c = 0 to ncols - 1 do
    let id = used.(c) in
    col.(id) <- c;
    columns.(c) <- Ids.monomial ids id
  done;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.set_gauge g_columns ncols;
    Obs.Metrics.set_gauge g_rows n
  end;
  (* one row per id array, its bits set in place in the matrix's store *)
  let matrix = Gf2.Matrix.create ~rows:n ~cols:ncols in
  for r = 0 to n - 1 do
    let row = rows.(r) in
    Gf2.Matrix.set_row_bits matrix r ~col row (Array.length row)
  done;
  ({ columns }, matrix)

(* Every polynomial as the ids of its monomials, each monomial hashed
   once. *)
let intern_polys polys =
  let occurrences = List.fold_left (fun acc p -> acc + Anf.Poly.n_terms p) 0 polys in
  let ids = Ids.create ~size_hint:occurrences () in
  let rows = Array.make (List.length polys) [||] in
  List.iteri
    (fun r p ->
      rows.(r) <- Array.init (Anf.Poly.n_terms p) (fun j -> Ids.intern ids (Anf.Poly.term p j)))
    polys;
  (ids, rows)

let build polys =
  let ids, rows = intern_polys polys in
  build_ids ids rows (Array.length rows)

let n_columns t = Array.length t.columns
let columns t = t.columns

let poly_of_row t row =
  Anf.Poly.of_monomials (Gf2.Bitvec.fold_set row [] (fun acc i -> t.columns.(i) :: acc))

type reduced = { n_columns : int; rank : int; rows : Anf.Poly.t list }

let reduce_built ?poll ~keep (t, matrix) =
  let rank = Gf2.Matrix.rref_m4rm ?poll matrix in
  let keep = keep t in
  (* the nonzero rows of a reduced row echelon form are its first [rank] *)
  let rows = ref [] in
  for i = rank - 1 downto 0 do
    let row = Gf2.Matrix.row matrix i in
    if keep row then rows := poly_of_row t row :: !rows
  done;
  { n_columns = n_columns t; rank; rows = !rows }

let reduce_ids ?poll ?(keep = fun _ _ -> true) ids rows n =
  reduce_built ?poll ~keep (build_ids ids rows n)

let reduce ?poll ?(keep = fun _ _ -> true) polys =
  reduce_built ?poll ~keep (build polys)

let cells polys =
  let ids, rows = intern_polys polys in
  Array.length rows * Ids.count ids
