module M = Anf.Monomial

module Mtbl = Hashtbl.Make (struct
  type t = M.t

  let equal = M.equal
  let hash = M.hash
end)

type t = { columns : M.t array }

(* Every distinct monomial of [polys], each bound to 0. *)
let distinct polys =
  let seen = Mtbl.create 64 in
  List.iter
    (fun p -> List.iter (fun m -> Mtbl.replace seen m 0) (Anf.Poly.monomials p))
    polys;
  seen

let g_columns = Obs.Metrics.gauge "linearize.columns"
let g_rows = Obs.Metrics.gauge "linearize.rows"

let build polys =
  Obs.Trace.with_span ~name:"linearize.build" @@ fun () ->
  let index = distinct polys in
  let columns =
    Array.of_list (List.sort M.compare (Mtbl.fold (fun m _ acc -> m :: acc) index []))
  in
  (* rebinding existing keys to their column never resizes the table *)
  Array.iteri (fun i m -> Mtbl.replace index m i) columns;
  let n_rows = List.length polys and ncols = Array.length columns in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.set_gauge g_columns ncols;
    Obs.Metrics.set_gauge g_rows n_rows
  end;
  (* one row per polynomial, its bits set in place in the matrix's own
     row *)
  let matrix = Gf2.Matrix.create ~rows:n_rows ~cols:ncols in
  List.iteri
    (fun r p ->
      let row = Gf2.Matrix.row matrix r in
      List.iter (fun m -> Gf2.Bitvec.set row (Mtbl.find index m) true) (Anf.Poly.monomials p))
    polys;
  ({ columns }, matrix)

let n_columns t = Array.length t.columns
let columns t = t.columns

let poly_of_row t row =
  Anf.Poly.of_monomials (Gf2.Bitvec.fold_set row [] (fun acc i -> t.columns.(i) :: acc))

type reduced = { n_columns : int; rank : int; rows : Anf.Poly.t list }

let reduce ?(jobs = 1) ?poll ?(keep = fun _ _ -> true) polys =
  let t, matrix = build polys in
  let rank = Gf2.Matrix.rref_m4rm ~jobs ?poll matrix in
  let keep = keep t in
  (* the nonzero rows of a reduced row echelon form are its first [rank] *)
  let rows = ref [] in
  for i = rank - 1 downto 0 do
    let row = Gf2.Matrix.row matrix i in
    if keep row then rows := poly_of_row t row :: !rows
  done;
  { n_columns = n_columns t; rank; rows = !rows }

let cells polys = List.length polys * Mtbl.length (distinct polys)
