module M = Anf.Monomial

module Mtbl = Hashtbl.Make (struct
  type t = M.t

  let equal = M.equal
  let hash = M.hash
end)

type t = { columns : M.t array; index : int Mtbl.t }

let chunk_keys polys =
  let seen = Mtbl.create 64 in
  List.iter
    (fun p -> List.iter (fun m -> Mtbl.replace seen m ()) (Anf.Poly.monomials p))
    polys;
  seen

let column_basis ?(jobs = 1) polys =
  let seen =
    if jobs <= 1 then chunk_keys polys
    else begin
      (* hash each chunk's monomials into a local table in parallel, then
         merge; the final sort makes the basis order chunking-independent *)
      let pool = Runtime.Pool.get ~jobs in
      let locals =
        Runtime.Pool.run pool
          (List.map
             (fun chunk () ->
               Obs.Trace.with_span ~name:"linearize.hash_chunk" (fun () ->
                   chunk_keys chunk))
             (Runtime.Pool.chunk_list ~chunks:jobs polys))
      in
      let seen = Mtbl.create 64 in
      List.iter (fun local -> Mtbl.iter (fun m () -> Mtbl.replace seen m ()) local) locals;
      seen
    end
  in
  let cols = Mtbl.fold (fun m () acc -> m :: acc) seen [] in
  Array.of_list (List.sort M.compare cols)

let g_columns = Obs.Metrics.gauge "linearize.columns"
let g_rows = Obs.Metrics.gauge "linearize.rows"

(* Smallest system worth dispatching.  On 2 domains a build saves half
   its sequential time, which must beat 4x a ~20 us pool round-trip:
   160 us of sequential work, at roughly 3 us per polynomial. *)
let build_parallel_cutoff = 54

let build_parallel_worthwhile ~n_polys ~jobs () =
  jobs > 1
  && Int.min jobs (Domain.recommended_domain_count ()) > 1
  && n_polys >= build_parallel_cutoff

let build ?(jobs = 1) polys =
  Obs.Trace.with_span ~name:"linearize.build" @@ fun () ->
  let n_polys = List.length polys in
  let jobs = if build_parallel_worthwhile ~n_polys ~jobs () then jobs else 1 in
  let columns = column_basis ~jobs polys in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.set_gauge g_columns (Array.length columns);
    Obs.Metrics.set_gauge g_rows (List.length polys)
  end;
  let index = Mtbl.create (Array.length columns) in
  Array.iteri (fun i m -> Mtbl.replace index m i) columns;
  let t = { columns; index } in
  let ncols = Array.length columns in
  (* one row per polynomial; [index] is frozen by now, so concurrent reads
     from the pool's domains are safe *)
  let row_of p =
    let row = Gf2.Bitvec.create ncols in
    List.iter
      (fun m -> Gf2.Bitvec.set row (Mtbl.find index m) true)
      (Anf.Poly.monomials p);
    row
  in
  let[@check.allow
       "domain-capture"
         "index is frozen before the parallel row build; pool tasks only \
          read it"] rows =
    if jobs <= 1 then List.map row_of polys
    else Runtime.Pool.map_list (Runtime.Pool.get ~jobs) row_of polys
  in
  (t, Gf2.Matrix.of_rows ~cols:ncols rows)

let n_columns t = Array.length t.columns
let columns t = t.columns

let poly_of_row t row =
  Anf.Poly.of_monomials (Gf2.Bitvec.fold_set row [] (fun acc i -> t.columns.(i) :: acc))

let cells polys = List.length polys * Array.length (column_basis polys)
