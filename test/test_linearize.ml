(* Linearisation through dense monomial ids against the hash-table
   oracles of test/xl_oracle.ml, the one-store GF(2) matrix against plain
   Gauss-Jordan, and the no-forced-minor-collection rule for the large
   arrays of the driver path. *)

module P = Anf.Poly
module M = Anf.Monomial
module B = Bosphorus

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Random systems: sums of products of up to [max_deg] variables among
   [nvars], some plus 1; degrees vary so every degree bucket of the
   column order is exercised. *)
let random_system ~nvars ~n_polys ~max_deg seed =
  let rng = Random.State.make [| seed; 0x11d |] in
  List.init n_polys (fun _ ->
      let term () =
        M.of_vars (List.init (Random.State.int rng (max_deg + 1)) (fun _ -> Random.State.int rng nvars))
      in
      P.of_monomials (List.init (1 + Random.State.int rng 6) (fun _ -> term ())))

let same_matrix a b =
  Gf2.Matrix.rows a = Gf2.Matrix.rows b
  && Gf2.Matrix.cols a = Gf2.Matrix.cols b
  && List.for_all
       (fun i -> Gf2.Bitvec.equal (Gf2.Matrix.row a i) (Gf2.Matrix.row b i))
       (List.init (Gf2.Matrix.rows a) Fun.id)

let same_build polys =
  let lin, m = B.Linearize.build polys in
  let columns, m' = Xl_oracle.build polys in
  Array.length columns = B.Linearize.n_columns lin
  && Array.for_all2 M.equal columns (B.Linearize.columns lin)
  && same_matrix m m'

(* variable indices past 128 need a second radix digit, past 16384 a
   third *)
let prop_build_oracle =
  QCheck.Test.make ~name:"linearize: build = hash-table oracle" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 0 2))
    (fun (seed, spread) ->
      let nvars = [| 6; 300; 40_000 |].(spread) in
      let polys =
        random_system ~nvars ~n_polys:(1 + (seed mod 30)) ~max_deg:(1 + (seed mod 4)) seed
      in
      same_build polys)

let test_build_edges () =
  check "empty system" true (same_build []);
  check "zero and one" true (same_build [ P.zero; P.one; P.zero ]);
  check "one variable" true (same_build [ P.var 3; P.add (P.var 3) P.one ]);
  let lin, m = B.Linearize.build [ P.zero ] in
  check_int "no columns" 0 (B.Linearize.n_columns lin);
  check_int "one zero row" 1 (Gf2.Matrix.rows m)

let same_reduced (a : B.Linearize.reduced) (b : B.Linearize.reduced) =
  a.B.Linearize.n_columns = b.B.Linearize.n_columns
  && a.B.Linearize.rank = b.B.Linearize.rank
  && List.equal P.equal a.B.Linearize.rows b.B.Linearize.rows

let prop_reduce_oracle =
  QCheck.Test.make ~name:"linearize: expand + reduce = oracle" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let polys = random_system ~nvars:7 ~n_polys:(1 + (seed mod 9)) ~max_deg:2 seed in
      let mults = B.Xl.multipliers ~vars:(List.init 7 Fun.id) ~degree:1 in
      let expanded = Xl_oracle.expand ~multipliers:mults polys in
      same_reduced (B.Linearize.reduce expanded) (Xl_oracle.reduce expanded)
      && same_reduced
           (B.Linearize.reduce ~keep:B.Xl.fact_shaped expanded)
           (Xl_oracle.reduce ~keep:B.Xl.fact_shaped expanded))

let same_report (a : B.Xl.report) (b : B.Xl.report) =
  List.equal P.equal a.B.Xl.facts b.B.Xl.facts
  && a.B.Xl.sampled = b.B.Xl.sampled
  && a.B.Xl.expanded_rows = b.B.Xl.expanded_rows
  && a.B.Xl.columns = b.B.Xl.columns
  && a.B.Xl.rank = b.B.Xl.rank

(* Small sample and expansion budgets, so subsampling and the rows x
   columns stop test both bind on most seeds. *)
let xl_config seed =
  {
    B.Config.default with
    B.Config.xl_sample_bits = 5 + (seed mod 5);
    xl_expand_bits = seed mod 4;
    xl_degree = 1 + (seed mod 2);
  }

let prop_xl_report_oracle =
  QCheck.Test.make ~name:"xl: report = oracle (budgets bind)" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let polys = random_system ~nvars:8 ~n_polys:(1 + (seed mod 12)) ~max_deg:2 seed in
      let config = xl_config seed in
      let run f = f ~config ~rng:(Random.State.make [| seed |]) polys in
      same_report (run (fun ~config ~rng p -> B.Xl.run ~config ~rng p))
        (run (fun ~config ~rng p -> Xl_oracle.run ~config ~rng p)))

(* Under a monomial ceiling the expansion stops at the gauge; both sides
   must stop at the same row with the same partial report. *)
let prop_xl_gauge_oracle =
  QCheck.Test.make ~name:"xl: report = oracle under a monomial ceiling" ~count:100
    QCheck.(pair (int_range 0 100_000) (int_range 5 120))
    (fun (seed, ceiling) ->
      let polys = random_system ~nvars:8 ~n_polys:(2 + (seed mod 10)) ~max_deg:2 seed in
      let config = { (xl_config seed) with B.Config.xl_sample_bits = 20 } in
      let run f =
        let budget = Harness.Budget.create ~max_memory_monomials:ceiling ~poll_every:1 () in
        let r = f ~config ~rng:(Random.State.make [| seed |]) ~budget polys in
        (r, Harness.Budget.cells budget, Option.is_some (Harness.Budget.tripped budget))
      in
      let r1, cells1, trip1 =
        run (fun ~config ~rng ~budget p -> B.Xl.run ~config ~rng ~budget p)
      in
      let r2, cells2, trip2 =
        run (fun ~config ~rng ~budget p -> Xl_oracle.run ~config ~rng ~budget p)
      in
      same_report r1 r2 && cells1 = cells2 && trip1 = trip2)

let test_xl_gauge_trips () =
  (* the gauge reads the expansion's columns: a low ceiling must trip *)
  let polys = random_system ~nvars:8 ~n_polys:8 ~max_deg:2 5 in
  let budget = Harness.Budget.create ~max_memory_monomials:10 ~poll_every:1 () in
  ignore (B.Xl.run ~config:B.Config.default ~rng:(Random.State.make [| 1 |]) ~budget polys);
  check "tripped on memory" true
    (match Harness.Budget.tripped budget with
    | Some { Harness.Budget.kind = Harness.Budget.Memory; _ } -> true
    | _ -> false)

(* ---------- one-store matrices ---------- *)

let random_matrix ~rows ~cols ~density seed =
  let rng = Random.State.make [| seed |] in
  let m = Gf2.Matrix.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Random.State.int rng 100 < density then Gf2.Matrix.set m i j true
    done
  done;
  m

let m4rm_matches_rref m =
  let plain = Gf2.Matrix.copy m and four = Gf2.Matrix.copy m in
  let r1 = Gf2.Matrix.rref plain in
  let r2 = Gf2.Matrix.rref_m4rm four in
  r1 = r2 && same_matrix plain four

let test_m4rm_tall () =
  (* more than 256 rows: the shapes whose row arrays used to force minor
     collections; dense, sparse and XL-like, word-aligned and not *)
  List.iter
    (fun (rows, cols, density, seed) ->
      check
        (Printf.sprintf "%dx%d at %d%%" rows cols density)
        true
        (m4rm_matches_rref (random_matrix ~rows ~cols ~density seed)))
    [ (257, 63, 50, 1); (300, 200, 50, 2); (334, 723, 1, 3); (520, 126, 10, 4); (700, 64, 30, 5) ]

(* ---------- no forced minor collections ---------- *)

(* A full major first (it starts with a minor collection): it also
   settles the collector's pacing, so the only way the count can move is
   a collection the measured call itself brings about. *)
let minor_collections f =
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let x = f () in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  ignore (Sys.opaque_identity x);
  after - before

let test_no_minor_collection () =
  check_int "Matrix.create 1000x700" 0
    (minor_collections (fun () -> Gf2.Matrix.create ~rows:1000 ~cols:700));
  check_int "Solver.create 2000 vars" 0
    (minor_collections (fun () -> Sat.Solver.create ~nvars:2000 ()));
  let s = Sat.Solver.create ~nvars:10 () in
  check_int "solver growth to 3000 vars" 0
    (minor_collections (fun () ->
         ignore (Sat.Solver.add_clause s [ Cnf.Lit.pos 2999; Cnf.Lit.neg_of 1 ])))

let suite =
  [
    ( "bosphorus.linearize",
      [
        QCheck_alcotest.to_alcotest prop_build_oracle;
        Alcotest.test_case "build edge cases = oracle" `Quick test_build_edges;
        QCheck_alcotest.to_alcotest prop_reduce_oracle;
        QCheck_alcotest.to_alcotest prop_xl_report_oracle;
        QCheck_alcotest.to_alcotest prop_xl_gauge_oracle;
        Alcotest.test_case "xl gauge trips on memory" `Quick test_xl_gauge_trips;
      ] );
    ( "gf2.store",
      [
        Alcotest.test_case "m4rm = rref past 256 rows" `Quick test_m4rm_tall;
        Alcotest.test_case "no minor collection creating matrix/solver" `Quick
          test_no_minor_collection;
      ] );
  ]
