(* The array-based ANF-to-CNF conversion against the list-based reference
   of anf_to_cnf_oracle.ml: one-shot conversion, single-polynomial
   conversion and incremental rounds must agree byte for byte — clause
   order, XOR rows, the auxiliary-variable map and every counter. *)

module P = Anf.Poly
module M = Anf.Monomial
module B = Bosphorus
module A = B.Anf_to_cnf
module O = Anf_to_cnf_oracle

let same_clauses a b = List.equal Cnf.Clause.equal a b

let same_formula f g =
  Cnf.Formula.nvars f = Cnf.Formula.nvars g
  && same_clauses (Cnf.Formula.clauses f) (Cnf.Formula.clauses g)

let mono_map tbl =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (Hashtbl.fold (fun v m acc -> (v, m) :: acc) tbl [])

let same_mono_map a b =
  List.equal (fun (v, m) (w, n) -> v = w && M.equal m n) (mono_map a) (mono_map b)

let same_xors (a : (int list * bool) list) b = a = b

let same_conversion (c : A.conversion) (o : O.conversion) =
  same_formula c.A.formula o.O.formula
  && c.A.anf_nvars = o.O.anf_nvars
  && same_mono_map c.A.mono_of_var o.O.mono_of_var
  && c.A.n_monomial_aux = o.O.n_monomial_aux
  && c.A.n_cut_aux = o.O.n_cut_aux
  && c.A.n_karnaugh = o.O.n_karnaugh
  && c.A.n_tseitin = o.O.n_tseitin
  && same_xors c.A.xors o.O.xors

(* Systems over up to 12 variables whose polynomials reach past every cut
   length (up to 12 terms, degree <= 3), mixed with the unit, equivalence
   and linear shapes the conversion special-cases. *)
let poly_gen nvars =
  QCheck.Gen.(
    let var = int_bound (nvars - 1) in
    let mono = map M.of_vars (list_size (int_range 0 3) var) in
    frequency
      [
        (6, map P.of_monomials (list_size (int_range 1 12) mono));
        (2, map (fun xs -> P.of_monomials (List.map M.var xs)) (list_size (int_range 1 12) var));
        (1, map (fun (x, b) -> P.add (P.var x) (P.constant b)) (pair var bool));
        (1, map (fun (x, y) -> P.add (P.var x) (P.var y)) (pair var var));
      ])

let config_gen =
  QCheck.Gen.(
    let* k = oneofl [ 0; 4; 8 ] in
    let* l = oneofl [ 3; 5; 7 ] in
    return { B.Config.default with B.Config.karnaugh_vars = k; xor_cut_length = l })

let print_config (c : B.Config.t) =
  Printf.sprintf "K=%d L=%d" c.B.Config.karnaugh_vars c.B.Config.xor_cut_length

let print_system polys = String.concat " ; " (List.map P.to_string polys)

let arb_convert =
  QCheck.make
    ~print:(fun (c, polys) -> print_config c ^ ": " ^ print_system polys)
    QCheck.Gen.(
      let* nvars = int_range 1 12 in
      pair config_gen (list_size (int_range 1 10) (poly_gen nvars)))

let prop_convert =
  QCheck.Test.make ~name:"convert = list-based reference" ~count:300 arb_convert
    (fun (config, polys) ->
      same_conversion (A.convert ~config polys) (O.convert ~config polys)
      && same_conversion (A.convert ~nvars:20 ~config polys) (O.convert ~nvars:20 ~config polys))

let prop_convert_poly_clauses =
  QCheck.Test.make ~name:"convert_poly_clauses = list-based reference" ~count:300 arb_convert
    (fun (config, polys) ->
      List.for_all
        (fun p ->
          same_clauses (A.convert_poly_clauses ~config p) (O.convert_poly_clauses ~config p))
        polys)

(* rounds drawn from one pool, so later rounds repeat earlier polynomials *)
let arb_rounds =
  QCheck.make
    ~print:(fun (c, rounds) ->
      print_config c ^ ": " ^ String.concat " || " (List.map print_system rounds))
    QCheck.Gen.(
      let* nvars = int_range 1 12 in
      let* pool = list_size (int_range 1 12) (poly_gen nvars) in
      let pick = oneofl pool in
      pair config_gen (list_size (int_range 1 4) (list_size (int_range 0 8) pick)))

let prop_encode_round =
  QCheck.Test.make ~name:"encode_round deltas = list-based reference" ~count:300 arb_rounds
    (fun (config, rounds) ->
      let anf_nvars =
        List.fold_left (List.fold_left (fun acc p -> max acc (P.max_var p + 1))) 0 rounds
      in
      let inc = A.create_incremental ~config ~anf_nvars
      and ref_inc = O.create_incremental ~config ~anf_nvars in
      List.for_all
        (fun polys ->
          let d = A.encode_round inc polys and r = O.encode_round ref_inc polys in
          same_clauses d.A.delta_clauses r.O.delta_clauses
          && d.A.n_encoded = r.O.n_encoded
          && d.A.n_reused = r.O.n_reused
          && A.cnf_nvars inc = O.cnf_nvars ref_inc
          && A.anf_nvars inc = O.anf_nvars ref_inc
          && same_xors (A.xors inc) (O.xors ref_inc)
          && same_mono_map (A.mono_of_var inc) (O.mono_of_var ref_inc)
          && same_formula (A.formula inc) (O.formula ref_inc))
        rounds)

(* The cipher systems the benchmarks convert, at the default K and L and
   at the Tseitin-only K = 0. *)
let test_cipher_systems () =
  let simon =
    (Ciphers.Simon.instance ~rounds:3 ~n_plaintexts:1 ~rng:(Random.State.make [| 5 |]) ())
      .Ciphers.Simon.equations
  and speck =
    (Ciphers.Speck.instance ~rounds:2 ~n_plaintexts:1 ~rng:(Random.State.make [| 7 |]) ())
      .Ciphers.Speck.equations
  in
  List.iter
    (fun config ->
      List.iter
        (fun polys ->
          Alcotest.(check bool)
            (print_config config) true
            (same_conversion (A.convert ~config polys) (O.convert ~config polys)))
        [ simon; speck ])
    [ B.Config.default; { B.Config.default with B.Config.karnaugh_vars = 0 } ]

let suite =
  [
    ( "bosphorus.anf_to_cnf",
      Alcotest.test_case "cipher systems = list-based reference" `Quick test_cipher_systems
      :: List.map QCheck_alcotest.to_alcotest
           [ prop_convert; prop_convert_poly_clauses; prop_encode_round ] );
  ]
