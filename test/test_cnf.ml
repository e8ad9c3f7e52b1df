(* Tests for literals, clauses, formulas and DIMACS io. *)

module L = Cnf.Lit
module C = Cnf.Clause
module F = Cnf.Formula

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_lit_packing () =
  let p = L.pos 5 and n = L.neg_of 5 in
  check_int "var pos" 5 (L.var p);
  check_int "var neg" 5 (L.var n);
  check "pos not negated" false (L.negated p);
  check "neg negated" true (L.negated n);
  check "neg involutive" true (L.equal p (L.neg (L.neg p)));
  check "neg flips" true (L.equal n (L.neg p));
  check_int "packing" 10 (L.to_index p);
  check_int "packing neg" 11 (L.to_index n)

let test_lit_dimacs () =
  check_int "pos dimacs" 6 (L.to_dimacs (L.pos 5));
  check_int "neg dimacs" (-6) (L.to_dimacs (L.neg_of 5));
  check "roundtrip pos" true (L.equal (L.pos 5) (L.of_dimacs 6));
  check "roundtrip neg" true (L.equal (L.neg_of 5) (L.of_dimacs (-6)));
  Alcotest.check_raises "zero" (Invalid_argument "Lit.of_dimacs: zero") (fun () ->
      ignore (L.of_dimacs 0))

let test_lit_eval () =
  let env v = v = 2 in
  check "pos sat" true (L.eval env (L.pos 2));
  check "pos unsat" false (L.eval env (L.pos 3));
  check "neg sat" true (L.eval env (L.neg_of 3));
  check "neg unsat" false (L.eval env (L.neg_of 2))

let test_clause_normalisation () =
  let c = C.of_list [ L.pos 3; L.pos 1; L.pos 3; L.neg_of 2 ] in
  check_int "dedup" 3 (C.length c);
  Alcotest.(check (list int)) "vars" [ 1; 2; 3 ] (C.vars c);
  (* every list of up to four literals over two variables, in every
     order and with repeats: ascending and distinct, as sort_uniq *)
  let pool = [ L.pos 0; L.neg_of 0; L.pos 1; L.neg_of 1 ] in
  let rec lists n =
    if n = 0 then [ [] ]
    else [] :: List.concat_map (fun l -> List.map (fun t -> l :: t) (lists (n - 1))) pool
  in
  List.iter
    (fun lits ->
      Alcotest.(check (list int)) "sorted and distinct"
        (List.map L.to_index (List.sort_uniq L.compare lits))
        (List.map L.to_index (C.to_list (C.of_list lits))))
    (lists 4)

let test_clause_tautology () =
  check "taut" true (C.is_tautology (C.of_list [ L.pos 1; L.neg_of 1 ]));
  check "not taut" false (C.is_tautology (C.of_list [ L.pos 1; L.neg_of 2 ]))

let test_clause_positive_count () =
  let c = C.of_list [ L.pos 1; L.neg_of 2; L.pos 3; L.neg_of 4 ] in
  check_int "positives" 2 (C.n_positive c)

let test_clause_subsumption () =
  let a = C.of_list [ L.pos 1; L.neg_of 2 ] in
  let b = C.of_list [ L.pos 1; L.neg_of 2; L.pos 3 ] in
  check "a subsumes b" true (C.subsumes a b);
  check "b not subsumes a" false (C.subsumes b a)

let test_formula_basics () =
  let f =
    F.create ~nvars:0
      [ C.of_list [ L.pos 0; L.pos 1 ]; C.of_list [ L.pos 2; L.neg_of 2 ] ]
  in
  check_int "nvars inferred" 2 (F.nvars f);
  check_int "tautology dropped" 1 (F.n_clauses f);
  check "no empty clause" false (F.has_empty_clause f);
  let f = F.add_clause f (C.of_list []) in
  check "empty clause" true (F.has_empty_clause f)

let test_formula_count () =
  (* (x0 | x1) has 3 models over 2 vars *)
  let f = F.create ~nvars:2 [ C.of_list [ L.pos 0; L.pos 1 ] ] in
  check_int "models" 3 (F.brute_force_count f);
  check "sat" true (F.brute_force_sat f = Some true)

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 4 3\n1 -2 0\n3 4 -1 0\n2 0\n" in
  let f = Cnf.Dimacs.parse_string text in
  check_int "nvars" 4 (F.nvars f);
  check_int "clauses" 3 (F.n_clauses f);
  let f2 = Cnf.Dimacs.parse_string (Cnf.Dimacs.write_string f) in
  check_int "roundtrip clauses" 3 (F.n_clauses f2);
  check_int "roundtrip count" (F.brute_force_count f) (F.brute_force_count f2)

let test_dimacs_multiline_clause () =
  (* clauses may span lines; terminated by 0 *)
  let f = Cnf.Dimacs.parse_string "p cnf 3 1\n1 2\n3 0\n" in
  check_int "one clause" 1 (F.n_clauses f);
  match F.clauses f with
  | [ c ] -> check_int "three lits" 3 (C.length c)
  | _ -> Alcotest.fail "expected one clause"

let test_dimacs_errors () =
  let expect_fail s =
    match Cnf.Dimacs.parse_string s with
    | exception Cnf.Dimacs.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  expect_fail "p cnf x 3\n1 0\n";
  expect_fail "1 2 3\n";
  (* unterminated *)
  expect_fail "1 two 0\n"

let test_dimacs_header_range () =
  let expect_fail s =
    match Cnf.Dimacs.parse_string s with
    | exception Cnf.Dimacs.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  (* a literal beyond the declared variable count is an error ... *)
  expect_fail "p cnf 2 1\n1 3 0\n";
  expect_fail "p cnf 2 1\n-5 0\n";
  (* ... wherever it sits relative to the header *)
  expect_fail "1 3 0\np cnf 2 1\n";
  (* the same goes for xor lines in the extended dialect *)
  (match Cnf.Dimacs.parse_string_extended "p cnf 2 1\nx1 3 0\n" with
  | exception Cnf.Dimacs.Parse_error _ -> ()
  | _ -> Alcotest.fail "extended parser accepted out-of-range xor literal");
  (* without a header the count is inferred: lenient path *)
  let f = Cnf.Dimacs.parse_string "1 3 0\n-2 0\n" in
  check_int "inferred nvars" 3 (F.nvars f);
  check_int "lenient clauses" 2 (F.n_clauses f);
  (* literals exactly at the declared bound are fine *)
  let f = Cnf.Dimacs.parse_string "p cnf 3 1\n1 -3 0\n" in
  check_int "at bound" 3 (F.nvars f)

let test_dimacs_xor_lines () =
  let text = "p cnf 4 1\n1 2 0\nx1 -2 3 0\nx-3 4 0\n" in
  let f, xors = Cnf.Dimacs.parse_string_extended text in
  check_int "clauses" 1 (F.n_clauses f);
  check_int "xors" 2 (List.length xors);
  (match xors with
  | [ (v1, p1); (v2, p2) ] ->
      Alcotest.(check (list int)) "vars 1" [ 0; 1; 2 ] v1;
      (* one negation flips the parity: x1+x2+x3 = 0 *)
      check "parity 1" false p1;
      Alcotest.(check (list int)) "vars 2" [ 2; 3 ] v2;
      check "parity 2" false p2
  | _ -> Alcotest.fail "expected two xors");
  (* the plain parser must reject xor lines *)
  (match Cnf.Dimacs.parse_string text with
  | exception Cnf.Dimacs.Parse_error _ -> ()
  | _ -> Alcotest.fail "plain parser accepted an xor line")

let test_dimacs_xor_roundtrip () =
  let f = F.create ~nvars:4 [ C.of_list [ L.pos 0; L.pos 1 ] ] in
  let xors = [ ([ 0; 1; 2 ], true); ([ 1; 3 ], false) ] in
  let text = Cnf.Dimacs.write_string_extended f xors in
  let f2, xors2 = Cnf.Dimacs.parse_string_extended text in
  check_int "clauses" (F.n_clauses f) (F.n_clauses f2);
  Alcotest.(check (list (pair (list int) bool))) "xors" xors xors2

let test_dimacs_xor_literal_cancellation () =
  (* x1 -1 2 0 is x1 (+) ~x1 (+) x2 = 1, i.e. x2 = 0 *)
  let _, xors = Cnf.Dimacs.parse_string_extended "p cnf 2 0\nx1 -1 2 0\n" in
  Alcotest.(check (list (pair (list int) bool))) "reduced" [ ([ 1 ], false) ] xors

let test_xor_lines_through_solver () =
  (* native engine consumes parsed xor lines; UNSAT odd cycle *)
  let text = "p cnf 3 0\nx1 2 0\nx2 3 0\nx1 3 0\n" in
  let f, xors = Cnf.Dimacs.parse_string_extended text in
  let s = Sat.Solver.create ~nvars:(F.nvars f) () in
  ignore (Sat.Solver.add_formula s f);
  List.iter (fun (vars, parity) -> ignore (Sat.Solver.add_xor s ~vars ~parity)) xors;
  check "odd cycle unsat" true (Sat.Solver.solve s = Sat.Types.Unsat)

let suite =
  [
    ( "cnf.lit_clause",
      [
        Alcotest.test_case "literal packing" `Quick test_lit_packing;
        Alcotest.test_case "dimacs literals" `Quick test_lit_dimacs;
        Alcotest.test_case "literal eval" `Quick test_lit_eval;
        Alcotest.test_case "clause normalisation" `Quick test_clause_normalisation;
        Alcotest.test_case "tautology detection" `Quick test_clause_tautology;
        Alcotest.test_case "positive literal count" `Quick test_clause_positive_count;
        Alcotest.test_case "subsumption" `Quick test_clause_subsumption;
      ] );
    ( "cnf.formula_dimacs",
      [
        Alcotest.test_case "formula basics" `Quick test_formula_basics;
        Alcotest.test_case "model counting" `Quick test_formula_count;
        Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
        Alcotest.test_case "multiline clause" `Quick test_dimacs_multiline_clause;
        Alcotest.test_case "dimacs errors" `Quick test_dimacs_errors;
        Alcotest.test_case "dimacs header range" `Quick test_dimacs_header_range;
        Alcotest.test_case "xor lines" `Quick test_dimacs_xor_lines;
        Alcotest.test_case "xor roundtrip" `Quick test_dimacs_xor_roundtrip;
        Alcotest.test_case "xor literal cancellation" `Quick test_dimacs_xor_literal_cancellation;
        Alcotest.test_case "xor lines via native engine" `Quick test_xor_lines_through_solver;
      ] );
  ]
