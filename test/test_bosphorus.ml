(* Tests for the Bosphorus core: propagation, XL, ElimLin, conversions and
   the driver, anchored on the paper's worked examples. *)

module P = Anf.Poly
module B = Bosphorus

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let poly = Anf.Anf_io.poly_of_string

let paper_system () =
  (* system (1) of Section II-E; unique solution x1=..=x4=1, x5=0 *)
  List.map poly
    [
      "x1*x2 + x3 + x4 + 1";
      "x1*x2*x3 + x1 + x3 + 1";
      "x1*x3 + x3*x4*x5 + x3";
      "x2*x3 + x3*x5 + 1";
      "x2*x3 + x5 + 1";
    ]

let table1_system () = [ poly "x1*x2 + x1 + 1"; poly "x2*x3 + x3" ]

(* ------------------------------------------------------------------ *)
(* ANF propagation                                                     *)
(* ------------------------------------------------------------------ *)

let test_prop_values_and_equivalences () =
  let s = Anf.System.create [ poly "x1 + 1"; poly "x1 + x2"; poly "x2 + x3 + 1" ] in
  let st = B.Anf_prop.create () in
  (match B.Anf_prop.propagate st s with
  | `Contradiction -> Alcotest.fail "consistent system"
  | `Fixedpoint -> ());
  check "x1 = 1" true (B.Anf_prop.value_of st 1 = Some true);
  check "x2 = 1" true (B.Anf_prop.value_of st 2 = Some true);
  check "x3 = 0" true (B.Anf_prop.value_of st 3 = Some false);
  check_int "system emptied" 0 (Anf.System.size s)

let test_prop_all_ones () =
  let s = Anf.System.create [ poly "x1*x2*x3 + 1" ] in
  let st = B.Anf_prop.create () in
  ignore (B.Anf_prop.propagate st s);
  List.iter
    (fun x -> check (Printf.sprintf "x%d = 1" x) true (B.Anf_prop.value_of st x = Some true))
    [ 1; 2; 3 ]

let test_prop_contradiction () =
  let s = Anf.System.create [ poly "x1"; poly "x1 + 1" ] in
  let st = B.Anf_prop.create () in
  check "contradiction" true (B.Anf_prop.propagate st s = `Contradiction);
  check "1 in system" true (Anf.System.has_contradiction s)

let test_prop_equiv_chain_conflict () =
  (* x1 = x2, x2 = x3, x1 = ~x3 is inconsistent *)
  let s = Anf.System.create [ poly "x1 + x2"; poly "x2 + x3"; poly "x1 + x3 + 1" ] in
  let st = B.Anf_prop.create () in
  check "conflict through classes" true (B.Anf_prop.propagate st s = `Contradiction)

let test_prop_simplifies_via_substitution () =
  (* paper II-C tail: assigning x2 = 1 in x1x2+x2x3+1 then propagation
     deduces x1 = ~x3 *)
  let s = Anf.System.create [ poly "x2 + 1"; poly "x1*x2 + x2*x3 + 1" ] in
  let st = B.Anf_prop.create () in
  ignore (B.Anf_prop.propagate st s);
  let r1, p1 = B.Anf_prop.repr_of st 1 and r3, p3 = B.Anf_prop.repr_of st 3 in
  check "x1 ~ x3 same class" true (r1 = r3);
  check "opposite parity" true (p1 <> p3)

let test_prop_paper_example_after_facts () =
  (* Section II-E: after adding the XL facts to (1), propagation alone
     solves the system *)
  let facts =
    List.map poly
      [ "x2*x3*x4 + 1"; "x1*x3*x4 + 1"; "x1 + x5 + 1"; "x1 + x4"; "x3 + 1"; "x1 + x2" ]
  in
  let s = Anf.System.create (paper_system () @ facts) in
  let st = B.Anf_prop.create () in
  (match B.Anf_prop.propagate st s with
  | `Contradiction -> Alcotest.fail "consistent"
  | `Fixedpoint -> ());
  List.iter
    (fun x ->
      check (Printf.sprintf "x%d" x)
        (x <> 5)
        (B.Anf_prop.value_of st x = Some true))
    [ 1; 2; 3; 4; 5 ];
  check "x5 = 0" true (B.Anf_prop.value_of st 5 = Some false)

let test_prop_fact_polys_roundtrip () =
  let s = Anf.System.create [ poly "x1 + 1"; poly "x2 + x3 + 1" ] in
  let st = B.Anf_prop.create () in
  ignore (B.Anf_prop.propagate st s);
  let facts = B.Anf_prop.fact_polys st in
  (* facts must hold in every solution of the original system *)
  List.iter
    (fun sol ->
      let lookup x = List.assoc x sol in
      List.iter (fun f -> check "fact holds" false (P.eval lookup f)) facts)
    (Anf.Eval.all_solutions [ poly "x1 + 1"; poly "x2 + x3 + 1" ])

(* ------------------------------------------------------------------ *)
(* XL                                                                  *)
(* ------------------------------------------------------------------ *)

let test_xl_multipliers () =
  check_int "degree 1 over 3 vars" 3
    (List.length (B.Xl.multipliers ~vars:[ 1; 2; 3 ] ~degree:1));
  check_int "degree 2 over 4 vars" 10
    (List.length (B.Xl.multipliers ~vars:[ 0; 1; 2; 3 ] ~degree:2));
  check_int "degree 0" 0 (List.length (B.Xl.multipliers ~vars:[ 0; 1 ] ~degree:0));
  check_int "duplicates collapsed" 2
    (List.length (B.Xl.multipliers ~vars:[ 4; 4; 7 ] ~degree:1))

let test_xl_table1 () =
  (* Table I: expansion of {x1x2+x1+1, x2x3+x3} by degree-1 monomials has 7
     rows of which one (x3 times the second equation) duplicates the
     original, so 6 distinct rows; rank 6; XL learns x1+1, x2, x3. *)
  let polys = table1_system () in
  let mults = B.Xl.multipliers ~vars:[ 1; 2; 3 ] ~degree:1 in
  let expanded = Xl_oracle.expand ~multipliers:mults polys in
  check_int "distinct expanded rows" 6 (List.length expanded);
  let report = B.Xl.run ~config:B.Config.default ~rng:(Random.State.make [| 0 |]) polys in
  check_int "rank" 6 report.B.Xl.rank;
  let fact_strings = List.map P.to_string report.B.Xl.facts in
  List.iter
    (fun f -> check ("fact " ^ f) true (List.mem f fact_strings))
    [ "x1 + 1"; "x2"; "x3" ]

let test_xl_paper_example_solves () =
  (* Section II-E: ANF propagation after the XL step alone solves (1) *)
  let polys = paper_system () in
  let report = B.Xl.run ~config:B.Config.default ~rng:(Random.State.make [| 0 |]) polys in
  check "learnt something" true (List.length report.B.Xl.facts > 0);
  let s = Anf.System.create (polys @ report.B.Xl.facts) in
  let st = B.Anf_prop.create () in
  (match B.Anf_prop.propagate st s with
  | `Contradiction -> Alcotest.fail "consistent"
  | `Fixedpoint -> ());
  check "x1=1" true (B.Anf_prop.value_of st 1 = Some true);
  check "x5=0" true (B.Anf_prop.value_of st 5 = Some false)

let test_xl_facts_are_implied () =
  (* every XL fact must hold in every solution of the input system *)
  let polys = paper_system () in
  let report = B.Xl.run ~config:B.Config.default ~rng:(Random.State.make [| 7 |]) polys in
  let sols = Anf.Eval.all_solutions polys in
  check "solutions exist" true (sols <> []);
  List.iter
    (fun sol ->
      let lookup x = List.assoc x sol in
      List.iter
        (fun f -> check ("implied: " ^ P.to_string f) false (P.eval lookup f))
        report.B.Xl.facts)
    sols

let test_xl_retain_shapes () =
  let kept =
    B.Xl.retain_facts
      [ poly "x1 + x2"; poly "x1*x2 + 1"; poly "x1*x2 + x3"; poly "1"; P.zero ]
  in
  check_int "keeps linear, all-ones, contradiction" 3 (List.length kept)

(* Reference XL expansion: every polynomial, then its products, first
   occurrences kept, by list scans. *)
let reference_expand ~multipliers polys =
  List.rev
    (List.fold_left
       (fun acc p -> if P.is_zero p || List.exists (P.equal p) acc then acc else p :: acc)
       []
       (List.concat_map (fun p -> p :: List.map (P.mul_monomial p) multipliers) polys))

(* Random quadratic systems shaped like the service workload's requests:
   sums of 2-4 products of two variables, half of them plus 1. *)
let quadratic_system ~nvars ~n_polys seed =
  let rng = Random.State.make [| seed |] in
  let var () = 1 + Random.State.int rng nvars in
  List.init n_polys (fun _ ->
      let q =
        List.fold_left
          (fun acc _ -> P.add acc (P.mul (P.var (var ())) (P.var (var ()))))
          P.zero
          (List.init (2 + Random.State.int rng 3) Fun.id)
      in
      if Random.State.bool rng then P.add q P.one else q)

let test_xl_expand_reference () =
  let polys = quadratic_system ~nvars:12 ~n_polys:10 3 in
  let mults = B.Xl.multipliers ~vars:(List.init 12 (fun i -> i + 1)) ~degree:1 in
  let got = Xl_oracle.expand ~multipliers:mults polys in
  check "same list" true (List.equal P.equal (reference_expand ~multipliers:mults polys) got)

let prop_xl_expand_reference =
  QCheck.Test.make ~name:"xl: expand = reference" ~count:60 QCheck.(int_range 0 1000)
    (fun seed ->
      let polys = quadratic_system ~nvars:6 ~n_polys:8 seed in
      let mults = B.Xl.multipliers ~vars:[ 1; 2; 3; 4 ] ~degree:(1 + (seed mod 2)) in
      List.equal P.equal (reference_expand ~multipliers:mults polys)
        (Xl_oracle.expand ~multipliers:mults polys))

(* XL converts only the reduced rows [fact_shaped] accepts; the facts
   must equal [retain_facts] over every nonzero reduced row, converted
   one by one as XL did before. *)
let oracle_facts polys =
  let lin, m = B.Linearize.build polys in
  let rank = Gf2.Matrix.rref m in
  B.Xl.retain_facts
    (List.init rank (fun i -> B.Linearize.poly_of_row lin (Gf2.Matrix.row m i)))

let test_xl_fact_rows_oracle () =
  List.iter
    (fun (nvars, n_polys, seed) ->
      let polys = quadratic_system ~nvars ~n_polys seed in
      let mults = B.Xl.multipliers ~vars:(List.init nvars (fun i -> i + 1)) ~degree:1 in
      List.iter
        (fun system ->
          let r = B.Linearize.reduce ~keep:B.Xl.fact_shaped system in
          let facts = B.Xl.retain_facts r.B.Linearize.rows in
          let expect = oracle_facts system in
          check (Printf.sprintf "seed %d: same facts" seed) true (List.equal P.equal expect facts))
        [ polys; Xl_oracle.expand ~multipliers:mults polys ])
    [ (20, 16, 1); (20, 16, 2); (20, 16, 3); (8, 12, 4); (6, 10, 5); (5, 9, 6); (4, 8, 7) ];
  (* the Table I system learns linear facts, and an all-ones fact
     survives the row filter too *)
  let table1 = Xl_oracle.expand ~multipliers:(B.Xl.multipliers ~vars:[ 1; 2; 3 ] ~degree:1)
      (table1_system ()) in
  check "table I" true
    (List.equal P.equal (oracle_facts table1)
       (B.Xl.retain_facts (B.Linearize.reduce ~keep:B.Xl.fact_shaped table1).B.Linearize.rows));
  let all_ones = [ poly "x1*x2*x3 + 1"; poly "x1*x4 + x2" ] in
  check "all-ones fact kept" true
    (List.exists (P.equal (poly "x1*x2*x3 + 1"))
       (B.Xl.retain_facts (B.Linearize.reduce ~keep:B.Xl.fact_shaped all_ones).B.Linearize.rows))

let test_xl_subsample_budget () =
  let polys = List.init 40 (fun i -> poly (Printf.sprintf "x%d*x%d + x%d" i (i + 1) (i + 2))) in
  let rng = Random.State.make [| 1 |] in
  let sample = B.Xl.subsample ~rng ~cell_budget:50 polys in
  check "nonempty" true (sample <> []);
  check "bounded" true (B.Linearize.cells sample <= 50 || List.length sample = 1)

(* ------------------------------------------------------------------ *)
(* ElimLin                                                             *)
(* ------------------------------------------------------------------ *)

let test_elimlin_paper_ii_c () =
  (* Section II-C: {x1+x2+x3, x1x2+x2x3+1}; substituting x1 := x2+x3 leads
     to x2+1 - ElimLin learns x2 = 1 (and the original linear equation). *)
  let polys = [ poly "x1 + x2 + x3"; poly "x1*x2 + x2*x3 + 1" ] in
  let report = B.Elimlin.run_full polys in
  let strings = List.map P.to_string report.B.Elimlin.facts in
  check "learns the input linear equation" true (List.mem "x1 + x2 + x3" strings);
  check "learns x2 + 1" true (List.mem "x2 + 1" strings)

let xl_facts_of_paper_example =
  (* the four linear XL facts of Section II-E, the state of the master when
     ElimLin runs in the paper's narrative *)
  [ "x1 + x5 + 1"; "x1 + x4"; "x3 + 1"; "x1 + x2" ]

let test_elimlin_paper_ii_e () =
  (* with the XL linear facts added to (1), ElimLin's GJE gathers them,
     substitutes, and learns x1 + 1 as in Section II-E *)
  let polys = paper_system () @ List.map poly xl_facts_of_paper_example in
  let report = B.Elimlin.run_full polys in
  (* GJE may canonicalise to an equivalent linear basis (e.g. x5 = 0 with
     x1 = x5 + 1 instead of literally x1 + 1), so check the semantics: the
     facts must force x1 = 1 under propagation *)
  let s = Anf.System.create report.B.Elimlin.facts in
  let st = B.Anf_prop.create () in
  (match B.Anf_prop.propagate st s with
  | `Contradiction -> Alcotest.fail "facts are consistent"
  | `Fixedpoint -> ());
  check "facts force x1 = 1" true (B.Anf_prop.value_of st 1 = Some true)

let test_elimlin_raw_system_no_linear_rows () =
  (* GJE of the raw system (1) has no linear rows (x1*x2 occurs only in the
     first equation), so ElimLin alone learns nothing here - the paper's
     narrative for (1) starts from the XL-augmented master *)
  let report = B.Elimlin.run_full (paper_system ()) in
  check_int "no facts from the raw system" 0 (List.length report.B.Elimlin.facts)

let test_elimlin_facts_implied () =
  let polys = paper_system () @ List.map poly xl_facts_of_paper_example in
  let report = B.Elimlin.run_full polys in
  check "learnt something" true (report.B.Elimlin.facts <> []);
  let sols = Anf.Eval.all_solutions polys in
  List.iter
    (fun sol ->
      let lookup x = List.assoc x sol in
      List.iter
        (fun f -> check ("implied: " ^ P.to_string f) false (P.eval lookup f))
        report.B.Elimlin.facts)
    sols

let test_elimlin_detects_unsat () =
  (* x1+x2, x1+x2+1 is linearly inconsistent *)
  let report = B.Elimlin.run_full [ poly "x1 + x2"; poly "x1 + x2 + 1" ] in
  check "contradiction fact" true (List.exists P.is_one report.B.Elimlin.facts)

let test_elimlin_no_linear () =
  (* a system with no linear consequences terminates after one round *)
  let report = B.Elimlin.run_full [ poly "x1*x2 + x3*x4" ] in
  check_int "no facts" 0 (List.length report.B.Elimlin.facts);
  check_int "one round" 1 report.B.Elimlin.rounds

(* ------------------------------------------------------------------ *)
(* ANF <-> CNF conversions                                             *)
(* ------------------------------------------------------------------ *)

let fig2_poly = "x1*x3 + x1 + x2 + x4 + 1"

let test_fig2_karnaugh_six_clauses () =
  (* Fig. 2 (left): Karnaugh conversion yields 6 clauses, no aux vars *)
  let config = { B.Config.default with B.Config.karnaugh_vars = 8 } in
  let clauses = B.Anf_to_cnf.convert_poly_clauses ~config (poly fig2_poly) in
  check_int "6 clauses" 6 (List.length clauses);
  let max_var = List.fold_left (fun acc c -> max acc (Cnf.Clause.max_var c)) 0 clauses in
  check "no auxiliary variables" true (max_var <= 4)

(* Systems whose pieces reach the Karnaugh bound: up to 10 variables,
   monomials of degree <= 3, at most 5 terms per polynomial. *)
let wide_system_gen =
  QCheck.Gen.(
    let* nvars = int_range 6 10 in
    let mono = map Anf.Monomial.of_vars (list_size (int_range 1 3) (int_bound (nvars - 1))) in
    let* n = int_range 1 12 in
    list_repeat n (map P.of_monomials (list_size (int_range 2 5) mono)))

(* The Karnaugh path encodes a piece exactly: on every assignment of its
   variables the clauses hold iff the polynomial is 0. *)
let test_karnaugh_piece_exact () =
  let rand = Random.State.make [| 23 |] in
  List.iter
    (fun p ->
      let clauses = B.Anf_to_cnf.convert_poly_clauses ~config:B.Config.default p in
      let vars = Array.of_list (P.vars p) in
      if Array.length vars <= 8 && List.for_all (fun c -> Cnf.Clause.max_var c <= P.max_var p) clauses then
        for a = 0 to (1 lsl Array.length vars) - 1 do
          let value x =
            let rec go i = if i >= Array.length vars then false else if vars.(i) = x then a lsr i land 1 = 1 else go (i + 1) in
            go 0
          in
          check (P.to_string p) (not (P.eval value p))
            (List.for_all (Cnf.Clause.eval value) clauses)
        done)
    (List.concat (QCheck.Gen.generate ~rand ~n:60 wide_system_gen))

(* The Karnaugh memo is per domain: a freshly spawned domain converts with
   a cold memo, the test domain with a warm one; both emit the same
   clauses and XOR rows. *)
let test_karnaugh_memo_transparent () =
  let rand = Random.State.make [| 17 |] in
  let simon =
    (Ciphers.Simon.instance ~rounds:3 ~n_plaintexts:1 ~rng:(Random.State.make [| 5 |]) ())
      .Ciphers.Simon.equations
  in
  let systems = simon :: QCheck.Gen.generate ~rand ~n:40 wide_system_gen in
  let convert polys =
    let c = B.Anf_to_cnf.convert ~config:B.Config.default polys in
    (Cnf.Formula.clauses c.B.Anf_to_cnf.formula, c.B.Anf_to_cnf.xors)
  in
  let cold = Domain.join (Domain.spawn (fun () -> List.map convert systems)) in
  let warm_up = List.map convert systems in
  let warm = List.map convert systems in
  check "cold = warming" true (cold = warm_up);
  check "cold = warm" true (cold = warm)

let test_karnaugh_bound_checked () =
  let config = { B.Config.default with B.Config.karnaugh_vars = 9 } in
  Alcotest.check_raises "K = 9" (Invalid_argument "Anf_to_cnf: karnaugh_vars (K) above 8")
    (fun () -> ignore (B.Anf_to_cnf.convert ~config [ poly fig2_poly ]))

let test_fig2_tseitin_eleven_clauses () =
  (* Fig. 2 (right): Tseitin conversion yields 11 clauses (3 for x5=x1x3
     plus 8 for the 4-term XOR) and one aux var *)
  let config = { B.Config.default with B.Config.karnaugh_vars = 0 } in
  let clauses = B.Anf_to_cnf.convert_poly_clauses ~config (poly fig2_poly) in
  check_int "11 clauses" 11 (List.length clauses);
  let max_var = List.fold_left (fun acc c -> max acc (Cnf.Clause.max_var c)) 0 clauses in
  check "exactly one auxiliary variable" true (max_var = 5)

let count_anf_models polys =
  Anf.Eval.count_solutions polys

let projected_model_count formula ~over =
  (* count assignments to vars [0..over-1] extendable to models of formula *)
  let seen = Hashtbl.create 64 in
  let n = Cnf.Formula.nvars formula in
  if n > 22 then Alcotest.fail "formula too large for exhaustive check";
  for mask = 0 to (1 lsl n) - 1 do
    let a v = mask lsr v land 1 = 1 in
    if Cnf.Formula.eval a formula then
      Hashtbl.replace seen (mask land ((1 lsl over) - 1)) ()
  done;
  Hashtbl.length seen

let test_conversion_preserves_models () =
  (* the CNF's models projected to ANF vars = the ANF's models *)
  let polys = [ poly "x0*x1 + x2"; poly "x0 + x1 + x2 + 1" ] in
  let conv = B.Anf_to_cnf.convert ~config:B.Config.default polys in
  check_int "model counts match"
    (count_anf_models polys)
    (projected_model_count conv.B.Anf_to_cnf.formula ~over:conv.B.Anf_to_cnf.anf_nvars)

let test_conversion_cutting () =
  (* a long XOR gets cut: with L=5, an 8-term linear poly needs aux vars *)
  let p = poly "x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8" in
  let config = { B.Config.default with B.Config.xor_cut_length = 5; karnaugh_vars = 4 } in
  let conv = B.Anf_to_cnf.convert ~config [ p ] in
  check "cut aux introduced" true (conv.B.Anf_to_cnf.n_cut_aux > 0);
  (* equisatisfiable and projection-exact *)
  check_int "projected models"
    (count_anf_models [ p ])
    (projected_model_count conv.B.Anf_to_cnf.formula ~over:9)

let test_clause_poly_paper_example () =
  (* Section III-D: clause ~x1 | x2 becomes x1*(x2+1) = x1x2 + x1 *)
  let c = Cnf.Clause.of_list [ Cnf.Lit.neg_of 1; Cnf.Lit.pos 2 ] in
  Alcotest.(check string) "product of negated literals" "x1*x2 + x1"
    (P.to_string (B.Cnf_to_anf.clause_poly c))

let test_cnf_to_anf_positive_blowup_control () =
  (* a clause with many positive literals is cut to limit 2^n expansion *)
  let lits = List.init 8 Cnf.Lit.pos in
  let f = Cnf.Formula.create ~nvars:8 [ Cnf.Clause.of_list lits ] in
  let config = { B.Config.default with B.Config.clause_cut_positive = 3 } in
  let conv = B.Cnf_to_anf.convert ~config f in
  check "aux vars used" true (conv.B.Cnf_to_anf.n_aux > 0);
  List.iter
    (fun p -> check "term bound respected" true (P.n_terms p <= 1 lsl 4))
    conv.B.Cnf_to_anf.polys

let test_cnf_to_anf_preserves_satisfiability () =
  let f =
    Cnf.Dimacs.parse_string "p cnf 4 4\n1 2 0\n-1 3 0\n-2 -3 4 0\n-4 0\n"
  in
  let conv = B.Cnf_to_anf.convert ~config:B.Config.default f in
  check "both satisfiable" true
    (Cnf.Formula.brute_force_sat f = Some (Anf.Eval.solution_exists conv.B.Cnf_to_anf.polys))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let test_driver_solves_paper_system () =
  let outcome = B.Driver.run (paper_system ()) in
  match outcome.B.Driver.status with
  | B.Driver.Solved_sat sol ->
      List.iter
        (fun x ->
          check (Printf.sprintf "x%d" x) (x <> 5) (List.assoc x sol))
        [ 1; 2; 3; 4; 5 ]
  | B.Driver.Solved_unsat -> Alcotest.fail "system is satisfiable"
  | B.Driver.Processed | B.Driver.Degraded ->
      Alcotest.fail "expected a solution on this tiny system"

let test_driver_unsat () =
  let outcome = B.Driver.run [ poly "x1*x2 + 1"; poly "x1 + x2 + 1" ] in
  (* x1=x2=1 forced by first; contradicts second *)
  check "unsat" true (outcome.B.Driver.status = B.Driver.Solved_unsat);
  check "anf is the contradiction" true (List.exists P.is_one outcome.B.Driver.anf)

let test_driver_table1 () =
  let outcome = B.Driver.run (table1_system ()) in
  match outcome.B.Driver.status with
  | B.Driver.Solved_sat sol ->
      check "x1" true (List.assoc 1 sol);
      check "x2" false (List.assoc 2 sol);
      check "x3" false (List.assoc 3 sol)
  | B.Driver.Solved_unsat | B.Driver.Processed | B.Driver.Degraded ->
      Alcotest.fail "expected solution"

let test_driver_stage_toggles () =
  let stages = { B.Driver.use_xl = true; use_elimlin = false; use_sat = false; use_groebner = false } in
  let outcome = B.Driver.run_with_stages ~stages (paper_system ()) in
  (* XL + propagation alone solve system (1) per Section II-E, but without
     the SAT stage there is no model extraction: the processed ANF should
     be empty of unresolved equations *)
  (match outcome.B.Driver.status with
  | B.Driver.Solved_sat _ -> Alcotest.fail "no SAT stage, no solution extraction"
  | B.Driver.Solved_unsat -> Alcotest.fail "satisfiable"
  | B.Driver.Processed | B.Driver.Degraded -> ());
  let unresolved =
    List.filter (fun p -> P.degree p > 1) outcome.B.Driver.anf
  in
  check_int "no nonlinear equations left" 0 (List.length unresolved)

let test_driver_processed_cnf_consistent () =
  let polys = paper_system () in
  let outcome = B.Driver.run ~config:{ B.Config.default with B.Config.stop_on_solution = false } polys in
  (* the processed CNF must have the same projected models as the input *)
  check "cnf satisfiable" true
    (Cnf.Formula.brute_force_sat outcome.B.Driver.cnf = Some true)

let test_driver_cnf_preprocessor () =
  (* unsatisfiable xor chain as CNF: x0+x1=1, x1+x2=1, x0+x2=1 (odd cycle) *)
  let xors =
    [
      Sat.Xor_module.make_xor ~vars:[ 0; 1 ] ~parity:true;
      Sat.Xor_module.make_xor ~vars:[ 1; 2 ] ~parity:true;
      Sat.Xor_module.make_xor ~vars:[ 0; 2 ] ~parity:true;
    ]
  in
  let f =
    Cnf.Formula.create ~nvars:3 (List.concat_map Sat.Xor_module.clauses_of_xor xors)
  in
  let outcome = B.Driver.run_cnf f in
  check "unsat detected" true (outcome.B.Driver.status = B.Driver.Solved_unsat)

let test_driver_cnf_sat_solution () =
  let f = Cnf.Dimacs.parse_string "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n" in
  let outcome = B.Driver.run_cnf f in
  match outcome.B.Driver.status with
  | B.Driver.Solved_sat sol ->
      let lookup x = try List.assoc x sol with Not_found -> false in
      check "model satisfies cnf" true (Cnf.Formula.eval lookup f)
  | B.Driver.Solved_unsat | B.Driver.Processed | B.Driver.Degraded ->
      Alcotest.fail "expected solution"

let test_augmented_cnf_equisatisfiable () =
  let f = Cnf.Dimacs.parse_string "p cnf 4 5\n1 2 0\n-1 3 0\n-3 4 0\n-2 4 0\n-4 1 0\n" in
  let outcome = B.Driver.run_cnf ~config:{ B.Config.default with B.Config.stop_on_solution = false } f in
  let g = B.Driver.augmented_cnf f outcome in
  check "same satisfiability" true
    (Cnf.Formula.brute_force_sat f = Cnf.Formula.brute_force_sat g);
  check "clauses added or equal" true (Cnf.Formula.n_clauses g >= Cnf.Formula.n_clauses f)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let mono_gen nvars =
  QCheck.Gen.(map Anf.Monomial.of_vars (list_size (int_bound 3) (int_bound (nvars - 1))))

let poly_gen nvars = QCheck.Gen.(map P.of_monomials (list_size (int_bound 6) (mono_gen nvars)))

let system_gen =
  QCheck.Gen.(
    let* nvars = int_range 2 6 in
    let* n = int_range 1 8 in
    list_repeat n (poly_gen nvars))

let arb_system =
  QCheck.make
    ~print:(fun polys -> String.concat " ; " (List.map P.to_string polys))
    system_gen

let prop_conversion_equisatisfiable =
  QCheck.Test.make ~name:"anf->cnf equisatisfiable" ~count:200 arb_system (fun polys ->
      let conv = B.Anf_to_cnf.convert ~config:B.Config.default polys in
      QCheck.assume (Cnf.Formula.nvars conv.B.Anf_to_cnf.formula <= 20);
      let anf_sat = Anf.Eval.solution_exists polys in
      Cnf.Formula.brute_force_sat conv.B.Anf_to_cnf.formula = Some anf_sat)

let prop_cnf_to_anf_equisatisfiable =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 1 6 in
      let* n_clauses = int_range 1 15 in
      let* clauses =
        list_repeat n_clauses
          (let* len = int_range 1 4 in
           list_repeat len
             (let* v = int_bound (nvars - 1) in
              let* s = bool in
              return (Cnf.Lit.make v ~negated:s)))
      in
      return (nvars, List.map Cnf.Clause.of_list clauses))
  in
  QCheck.Test.make ~name:"cnf->anf equisatisfiable" ~count:200
    (QCheck.make
       ~print:(fun (n, cls) ->
         Format.asprintf "nvars=%d %a" n
           (Format.pp_print_list Cnf.Clause.pp)
           cls)
       gen)
    (fun (nvars, clauses) ->
      let f = Cnf.Formula.create ~nvars clauses in
      let conv = B.Cnf_to_anf.convert ~config:B.Config.default f in
      QCheck.assume (List.length (Anf.Eval.vars_of conv.B.Cnf_to_anf.polys) <= 18);
      Cnf.Formula.brute_force_sat f = Some (Anf.Eval.solution_exists conv.B.Cnf_to_anf.polys))

let prop_driver_decides_correctly =
  QCheck.Test.make ~name:"driver status matches brute force" ~count:60 arb_system
    (fun polys ->
      let expected = Anf.Eval.solution_exists polys in
      let outcome = B.Driver.run polys in
      match outcome.B.Driver.status with
      | B.Driver.Solved_sat sol ->
          expected
          &&
          let lookup x = try List.assoc x sol with Not_found -> false in
          Anf.Eval.satisfies lookup polys
      | B.Driver.Solved_unsat -> not expected
      | B.Driver.Processed | B.Driver.Degraded ->
          (* undecided is acceptable, but the processed system must remain
             equisatisfiable *)
          Anf.Eval.solution_exists (List.filter (fun p -> P.max_var p < 24) outcome.B.Driver.anf)
          = expected)

let prop_driver_preserves_solution_set =
  (* Section V: Bosphorus "can continuously constrain the solution space
     without committing to one particular solution" - the processed ANF
     must have exactly the original solutions *)
  QCheck.Test.make ~name:"driver preserves the solution set" ~count:60 arb_system
    (fun polys ->
      let config = { B.Config.default with B.Config.stop_on_solution = false } in
      let outcome = B.Driver.run ~config polys in
      match outcome.B.Driver.status with
      | B.Driver.Solved_unsat -> not (Anf.Eval.solution_exists polys)
      | B.Driver.Solved_sat _ | B.Driver.Processed | B.Driver.Degraded ->
          let original = Anf.Eval.all_solutions polys in
          let processed = outcome.B.Driver.anf in
          let vars_orig = Anf.Eval.vars_of polys in
          let vars_proc = Anf.Eval.vars_of processed in
          QCheck.assume (List.length vars_proc <= 20);
          (* the processed system never invents variables *)
          List.for_all (fun v -> List.mem v vars_orig) vars_proc
          && (* (a) every original solution satisfies the processed system *)
          List.for_all
            (fun sol ->
              let lookup x = try List.assoc x sol with Not_found -> false in
              Anf.Eval.satisfies lookup processed)
            original
          && (* (b) counting: variables absent from the processed system are
                free, so the solution counts must agree up to that factor *)
          let free =
            List.length (List.filter (fun v -> not (List.mem v vars_proc)) vars_orig)
          in
          List.length original = Anf.Eval.count_solutions processed * (1 lsl free))

let prop_monomial_aux_extension_sound =
  (* the facts_from_monomial_aux extension (off by default, matching the
     paper) must stay sound: with it on and the Tseitin path forced, the
     driver still decides correctly *)
  QCheck.Test.make ~name:"monomial-aux fact extension is sound" ~count:40 arb_system
    (fun polys ->
      let config =
        {
          B.Config.default with
          B.Config.karnaugh_vars = 0;
          facts_from_monomial_aux = true;
        }
      in
      let expected = Anf.Eval.solution_exists polys in
      match (B.Driver.run ~config polys).B.Driver.status with
      | B.Driver.Solved_sat sol ->
          expected
          &&
          let lookup x = try List.assoc x sol with Not_found -> false in
          Anf.Eval.satisfies lookup polys
      | B.Driver.Solved_unsat -> not expected
      | B.Driver.Processed | B.Driver.Degraded -> true)

let prop_facts_always_implied =
  QCheck.Test.make ~name:"all learnt facts are implied" ~count:60 arb_system
    (fun polys ->
      let outcome = B.Driver.run ~config:{ B.Config.default with B.Config.stop_on_solution = false } polys in
      let sols = Anf.Eval.all_solutions polys in
      if sols = [] then true
      else
        List.for_all
          (fun (_, fact) ->
            P.max_var fact >= 24
            || List.for_all
                 (fun sol ->
                   let lookup x = try List.assoc x sol with Not_found -> false in
                   not (P.eval lookup fact))
                 sols)
          (B.Facts.to_list outcome.B.Driver.facts))

(* ------------------------------------------------------------------ *)
(* Incremental SAT rounds: one persistent solver fed per-round deltas
   must decide exactly like a fresh solver per round, and an iteration
   that adds no new polynomials must re-encode nothing.                 *)
(* ------------------------------------------------------------------ *)

let run_mode ~incremental polys =
  let config =
    {
      B.Config.default with
      B.Config.incremental_sat = incremental;
      B.Config.stop_on_solution = false;
    }
  in
  B.Driver.run ~config polys

let fact_polys outcome =
  List.sort_uniq P.compare (List.map snd (B.Facts.to_list outcome.B.Driver.facts))

let verdict outcome =
  match outcome.B.Driver.status with
  | B.Driver.Solved_sat _ -> `Sat
  | B.Driver.Solved_unsat -> `Unsat
  | B.Driver.Processed -> `Processed
  | B.Driver.Degraded -> `Degraded

let test_incremental_matches_fresh_fixed () =
  List.iter
    (fun (name, polys) ->
      let inc = run_mode ~incremental:true polys in
      let fresh = run_mode ~incremental:false polys in
      check (name ^ ": verdict agrees") true (verdict inc = verdict fresh);
      check (name ^ ": same final fact set") true
        (List.equal P.equal (fact_polys inc) (fact_polys fresh)))
    [
      ("paper system", paper_system ());
      ("table1", table1_system ());
      ("unsat pair", [ poly "x1*x2 + 1"; poly "x1 + x2 + 1" ]);
    ]

let test_incremental_reuses_encodings () =
  (* a cipher instance: large enough that the algebraic stages leave most
     of the ANF untouched between iterations, so poly-level reuse shows *)
  let config =
    {
      B.Config.default with
      B.Config.incremental_sat = true;
      stop_on_solution = false;
      max_iterations = 3;
      sat_budget_start = 2_000;
      sat_budget_max = 8_000;
      sat_budget_step = 3_000;
    }
  in
  let rng = Random.State.make [| 77 |] in
  let inst = Ciphers.Simon.instance ~rounds:4 ~n_plaintexts:2 ~rng () in
  let outcome = B.Driver.run ~config inst.Ciphers.Simon.equations in
  let rounds = outcome.B.Driver.sat_rounds in
  check "ran at least two rounds" true (List.length rounds >= 2);
  check "later rounds reuse earlier encodings" true
    (List.exists (fun r -> r.B.Driver.round_reused > 0) rounds);
  let last = List.nth rounds (List.length rounds - 1) in
  check_int "unchanged iteration re-encodes nothing" 0 last.B.Driver.round_encoded;
  check_int "and emits no clauses" 0 last.B.Driver.round_delta_clauses;
  (* the fresh path reports no reuse, by definition *)
  let fresh =
    B.Driver.run
      ~config:{ config with B.Config.incremental_sat = false }
      inst.Ciphers.Simon.equations
  in
  check "fresh path encodes every round" true
    (List.for_all
       (fun r -> r.B.Driver.round_reused = 0)
       fresh.B.Driver.sat_rounds)

(* ------------------------------------------------------------------ *)
(* Pinned sessions: a run reuses the pinned state exactly when its input
   is a superset of the pinning run's, under the same config and within
   the pinned variable range; any other run resets the session.         *)
(* ------------------------------------------------------------------ *)

(* hard enough that the SAT stage feeds clauses into the pinned solver *)
let session_system () =
  List.map poly
    [
      "x2*x11 + x5*x7 + x6*x11 + x7*x11 + 1";
      "x3*x12 + x5*x7 + 1";
      "x1*x2 + x1*x9 + x6*x10 + x7*x8";
      "x1*x6 + x1*x8 + x7*x8 + x8*x9 + 1";
      "x1*x9 + x6*x8 + x9*x12 + x11 + 1";
      "x2*x12 + x4*x7 + x5*x10 + 1";
      "x1*x11 + x2*x6 + x5*x8 + x11*x12";
      "x2*x4 + x2*x10 + x9*x11 + 1";
      "x2*x3 + x4*x6 + x10*x11 + 1";
      "x1*x5 + x1*x6 + x3*x10 + x4*x12 + 1";
    ]

let session_config = B.Config.default

let pinned_session () =
  let s = B.Driver.Session.create () in
  ignore (B.Driver.run ~config:session_config ~session:s (session_system ()));
  s

let test_session_superset_reuses () =
  let module Se = B.Driver.Session in
  let s = pinned_session () in
  let carried = Se.carried_clauses s in
  check "first run pins the clauses it fed" true (carried > 0);
  check "and the polynomials it encoded" true (Se.carried_polys s > 0);
  let superset = session_system () @ [ poly "x1*x2 + x3 + 1" ] in
  check "superset is compatible" true (Se.compatible s ~config:session_config superset);
  ignore (B.Driver.run ~config:session_config ~session:s superset);
  check "reused clauses stay carried" true (Se.carried_clauses s >= carried);
  check_int "runs" 2 (Se.runs s);
  check_int "no reset" 0 (Se.resets s)

let test_session_incompatible_resets () =
  let module Se = B.Driver.Session in
  let polys = session_system () in
  List.iter
    (fun (what, config, input) ->
      let s = pinned_session () in
      check (what ^ ": incompatible") false (Se.compatible s ~config input);
      ignore (B.Driver.run ~config ~session:s input);
      check_int (what ^ ": runs") 2 (Se.runs s);
      check_int (what ^ ": one reset") 1 (Se.resets s);
      check (what ^ ": re-pinned to the new input") true (Se.compatible s ~config input))
    [
      ("not a superset", session_config, List.tl polys);
      ("changed config", { session_config with B.Config.seed = 2 }, polys);
      ("variable beyond the range", session_config, polys @ [ poly "x13 + x1" ]);
    ]

let test_session_fresh_pins_nothing () =
  let module Se = B.Driver.Session in
  let polys = session_system () in
  let fresh = { session_config with B.Config.incremental_sat = false } in
  let s = pinned_session () in
  ignore (B.Driver.run ~config:fresh ~session:s polys);
  check_int "a fresh run resets the pinned session" 1 (Se.resets s);
  check_int "and carries nothing" 0 (Se.carried_clauses s);
  check "nothing is left to reuse" false (Se.compatible s ~config:session_config polys);
  ignore (B.Driver.run ~config:fresh ~session:s polys);
  check_int "an empty session is not reset" 1 (Se.resets s);
  check_int "runs" 3 (Se.runs s)

let prop_incremental_matches_fresh =
  QCheck.Test.make ~name:"incremental driver matches fresh-solver driver" ~count:60
    arb_system
    (fun polys ->
      let inc = run_mode ~incremental:true polys in
      let fresh = run_mode ~incremental:false polys in
      verdict inc = verdict fresh
      && List.equal P.equal (fact_polys inc) (fact_polys fresh))

(* Random propagation states: values, equivalences and negated
   equivalences over 10 variables, so classes share roots and some roots
   are fixed.  Conflicting steps are simply refused by the state. *)
type prop_step = Set_value of int * bool | Equate of int * int * bool

let prop_state_gen =
  QCheck.Gen.(
    list_size (int_bound 12)
      (frequency
         [
           (1, map2 (fun x v -> Set_value (x, v)) (int_bound 9) bool);
           (3, map3 (fun x y n -> Equate (x, y, n)) (int_bound 9) (int_bound 9) bool);
         ]))

let prop_state_of steps =
  let st = B.Anf_prop.create () in
  List.iter
    (function
      | Set_value (x, v) -> ignore (B.Anf_prop.assign st x v)
      | Equate (x, y, negated) -> ignore (B.Anf_prop.equate st x y ~negated))
    steps;
  st

let prop_normalise_oracle =
  QCheck.Test.make ~name:"anf_prop: one-pass normalise = subst chain" ~count:500
    (QCheck.make
       ~print:(fun (_, p) -> P.to_string p)
       QCheck.Gen.(
         pair prop_state_gen
           (map P.of_monomials
              (list_size (int_bound 8)
                 (map Anf.Monomial.of_vars (list_size (int_bound 4) (int_bound 11)))))))
    (fun (steps, p) ->
      let st = prop_state_of steps in
      P.equal (B.Anf_prop.normalise st p) (Anf_oracle.normalise st p))

(* A random triangular substitution list: distinct x_1..x_k, each by_i a
   linear polynomial over variables other than x_1..x_i (later x_j may
   occur), as ElimLin builds them. *)
let prop_elimlin_reduce_oracle =
  let gen =
    QCheck.Gen.(
      let* order = shuffle_l (List.init 12 Fun.id) in
      let* k = int_range 0 8 in
      let xs = List.filteri (fun i _ -> i < k) order in
      let linear_over allowed =
        let* picks = list_size (int_bound 5) (oneofl allowed) in
        let* c = bool in
        return (P.add (P.of_monomials (List.map Anf.Monomial.var picks)) (P.constant c))
      in
      let rec subs earlier = function
        | [] -> return []
        | x :: rest ->
            let earlier = x :: earlier in
            let allowed = List.filter (fun v -> not (List.mem v earlier)) (List.init 12 Fun.id) in
            let* by = if allowed = [] then return P.zero else linear_over allowed in
            let* tail = subs earlier rest in
            return ((x, by) :: tail)
      in
      let* applied = subs [] xs in
      let* l = linear_over (List.init 12 Fun.id) in
      return (applied, l))
  in
  QCheck.Test.make ~name:"elimlin: table reduction = sequential substitution" ~count:500
    (QCheck.make
       ~print:(fun (applied, l) ->
         String.concat ", "
           (List.map (fun (x, by) -> Printf.sprintf "x%d := %s" x (P.to_string by)) applied)
         ^ " | " ^ P.to_string l)
       gen)
    (fun (applied, l) ->
      let t = B.Elimlin.Substitutions.create () in
      List.iter (fun (x, by) -> B.Elimlin.Substitutions.record t x (P.add (P.var x) by)) applied;
      P.equal (B.Elimlin.Substitutions.reduce t l) (Anf_oracle.normalise_by_applied applied l))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_normalise_oracle;
      prop_elimlin_reduce_oracle;
      prop_conversion_equisatisfiable;
      prop_cnf_to_anf_equisatisfiable;
      prop_driver_decides_correctly;
      prop_driver_preserves_solution_set;
      prop_monomial_aux_extension_sound;
      prop_facts_always_implied;
      prop_incremental_matches_fresh;
    ]

let main_suite =
  [
    ( "bosphorus.propagation",
      [
        Alcotest.test_case "values and equivalences" `Quick test_prop_values_and_equivalences;
        Alcotest.test_case "all-ones monomial" `Quick test_prop_all_ones;
        Alcotest.test_case "contradiction" `Quick test_prop_contradiction;
        Alcotest.test_case "equivalence chain conflict" `Quick test_prop_equiv_chain_conflict;
        Alcotest.test_case "substitution deduces equivalence" `Quick test_prop_simplifies_via_substitution;
        Alcotest.test_case "paper II-E: facts + propagation solve (1)" `Quick test_prop_paper_example_after_facts;
        Alcotest.test_case "fact polys are implied" `Quick test_prop_fact_polys_roundtrip;
      ] );
    ( "bosphorus.xl",
      [
        Alcotest.test_case "multiplier sets" `Quick test_xl_multipliers;
        Alcotest.test_case "Table I expansion and facts" `Quick test_xl_table1;
        Alcotest.test_case "paper II-E: XL alone solves (1)" `Quick test_xl_paper_example_solves;
        Alcotest.test_case "facts are implied" `Quick test_xl_facts_are_implied;
        Alcotest.test_case "retained shapes" `Quick test_xl_retain_shapes;
        Alcotest.test_case "subsample respects budget" `Quick test_xl_subsample_budget;
        Alcotest.test_case "expand matches reference" `Quick test_xl_expand_reference;
        QCheck_alcotest.to_alcotest prop_xl_expand_reference;
        Alcotest.test_case "fact rows = all-row oracle" `Quick test_xl_fact_rows_oracle;
      ] );
    ( "bosphorus.elimlin",
      [
        Alcotest.test_case "paper II-C example" `Quick test_elimlin_paper_ii_c;
        Alcotest.test_case "paper II-E: learns x1+1 after XL facts" `Quick test_elimlin_paper_ii_e;
        Alcotest.test_case "raw system (1) has no linear rows" `Quick test_elimlin_raw_system_no_linear_rows;
        Alcotest.test_case "facts are implied" `Quick test_elimlin_facts_implied;
        Alcotest.test_case "detects unsat" `Quick test_elimlin_detects_unsat;
        Alcotest.test_case "no linear equations" `Quick test_elimlin_no_linear;
      ] );
    ( "bosphorus.conversion",
      [
        Alcotest.test_case "Fig. 2 Karnaugh: 6 clauses" `Quick test_fig2_karnaugh_six_clauses;
        Alcotest.test_case "Fig. 2 Tseitin: 11 clauses" `Quick test_fig2_tseitin_eleven_clauses;
        Alcotest.test_case "Karnaugh piece is exact" `Quick test_karnaugh_piece_exact;
        Alcotest.test_case "Karnaugh memo cold = warm" `Quick test_karnaugh_memo_transparent;
        Alcotest.test_case "Karnaugh bound above 8 rejected" `Quick test_karnaugh_bound_checked;
        Alcotest.test_case "models preserved under projection" `Quick test_conversion_preserves_models;
        Alcotest.test_case "xor cutting" `Quick test_conversion_cutting;
        Alcotest.test_case "clause poly (paper III-D)" `Quick test_clause_poly_paper_example;
        Alcotest.test_case "positive-literal blowup control" `Quick test_cnf_to_anf_positive_blowup_control;
        Alcotest.test_case "cnf->anf satisfiability" `Quick test_cnf_to_anf_preserves_satisfiability;
      ] );
    ( "bosphorus.driver",
      [
        Alcotest.test_case "solves paper system (1)" `Quick test_driver_solves_paper_system;
        Alcotest.test_case "detects unsat" `Quick test_driver_unsat;
        Alcotest.test_case "solves Table I system" `Quick test_driver_table1;
        Alcotest.test_case "stage toggles" `Quick test_driver_stage_toggles;
        Alcotest.test_case "processed cnf consistent" `Quick test_driver_processed_cnf_consistent;
        Alcotest.test_case "cnf preprocessor detects unsat" `Quick test_driver_cnf_preprocessor;
        Alcotest.test_case "cnf preprocessor finds solution" `Quick test_driver_cnf_sat_solution;
        Alcotest.test_case "augmented cnf equisatisfiable" `Quick test_augmented_cnf_equisatisfiable;
        Alcotest.test_case "incremental matches fresh (fixed systems)" `Quick
          test_incremental_matches_fresh_fixed;
        Alcotest.test_case "incremental reuses encodings" `Quick
          test_incremental_reuses_encodings;
        Alcotest.test_case "session: superset input reuses" `Quick
          test_session_superset_reuses;
        Alcotest.test_case "session: incompatible input resets" `Quick
          test_session_incompatible_resets;
        Alcotest.test_case "session: fresh run pins nothing" `Quick
          test_session_fresh_pins_nothing;
      ] );
    ("bosphorus.properties", qcheck_cases);
  ]

(* ------------------------------------------------------------------ *)
(* Groebner (Section V extension)                                      *)
(* ------------------------------------------------------------------ *)

let test_groebner_reduce () =
  (* x1x2 reduced by {x2} vanishes; by {x2 + 1} becomes x1 *)
  let p = poly "x1*x2" in
  check "by x2" true (P.is_zero (B.Groebner.reduce p [ poly "x2" ]));
  Alcotest.(check string) "by x2+1" "x1" (P.to_string (B.Groebner.reduce p [ poly "x2 + 1" ]));
  (* irreducible stays put *)
  check "irreducible" true (P.equal p (B.Groebner.reduce p [ poly "x3" ]))

let test_groebner_unique_solution_system () =
  (* x1x2 + x1 + 1 = 0 forces x1 = 1, x2 = 0; the truncated basis exposes
     both linear facts *)
  let report = B.Groebner.run [ poly "x1*x2 + x1 + 1" ] in
  let strings = List.map P.to_string report.B.Groebner.facts in
  check "x2 derived" true (List.mem "x2" strings);
  check "x1+1 derived" true (List.mem "x1 + 1" strings);
  check "no contradiction" false report.B.Groebner.contradiction

let test_groebner_contradiction () =
  let report = B.Groebner.run [ poly "x1"; poly "x1 + 1" ] in
  check "contradiction" true report.B.Groebner.contradiction;
  check "1 is a fact" true (List.exists P.is_one report.B.Groebner.facts)

let test_groebner_facts_implied () =
  let polys = paper_system () in
  let report = B.Groebner.run polys in
  let sols = Anf.Eval.all_solutions polys in
  check "solutions exist" true (sols <> []);
  List.iter
    (fun sol ->
      let lookup x = List.assoc x sol in
      List.iter
        (fun f -> check ("implied: " ^ P.to_string f) false (P.eval lookup f))
        report.B.Groebner.facts)
    sols

let test_groebner_budget_respected () =
  let polys = paper_system () in
  let report = B.Groebner.run ~max_pairs:5 polys in
  check "pair budget" true (report.B.Groebner.pairs_processed <= 5)

let test_driver_groebner_stage () =
  (* Groebner alone (with propagation) solves the Table I system *)
  let stages =
    { B.Driver.use_xl = false; use_elimlin = false; use_sat = false; use_groebner = true }
  in
  let outcome = B.Driver.run_with_stages ~stages (table1_system ()) in
  (match outcome.B.Driver.status with
  | B.Driver.Solved_sat _ -> Alcotest.fail "no SAT stage, no solution extraction"
  | B.Driver.Solved_unsat -> Alcotest.fail "satisfiable"
  | B.Driver.Processed | B.Driver.Degraded -> ());
  check "groebner facts recorded" true
    (B.Facts.count_by outcome.B.Driver.facts B.Facts.Groebner > 0);
  check_int "system fully reduced" 0
    (List.length (List.filter (fun p -> P.degree p > 1) outcome.B.Driver.anf))

let prop_groebner_facts_implied =
  QCheck.Test.make ~name:"groebner facts are implied" ~count:100 arb_system
    (fun polys ->
      let report = B.Groebner.run ~max_pairs:200 polys in
      let sols = Anf.Eval.all_solutions polys in
      (if sols = [] then
         (* unsatisfiable system: any fact is vacuously fine, but a derived
            contradiction must be genuine *)
         true
       else
         List.for_all
           (fun f ->
             List.for_all
               (fun sol ->
                 let lookup x = try List.assoc x sol with Not_found -> false in
                 not (P.eval lookup f))
               sols)
           report.B.Groebner.facts)
      && ((not report.B.Groebner.contradiction) || sols = []))

let groebner_suite =
  [
    ( "bosphorus.groebner",
      [
        Alcotest.test_case "reduce" `Quick test_groebner_reduce;
        Alcotest.test_case "unique-solution system" `Quick test_groebner_unique_solution_system;
        Alcotest.test_case "contradiction" `Quick test_groebner_contradiction;
        Alcotest.test_case "facts implied (paper system)" `Quick test_groebner_facts_implied;
        Alcotest.test_case "pair budget" `Quick test_groebner_budget_respected;
        Alcotest.test_case "driver stage" `Quick test_driver_groebner_stage;
        QCheck_alcotest.to_alcotest prop_groebner_facts_implied;
      ] );
  ]



(* ------------------------------------------------------------------ *)
(* Linearize and Facts infrastructure                                  *)
(* ------------------------------------------------------------------ *)

let test_linearize_roundtrip () =
  let polys = [ poly "x1*x2 + x3 + 1"; poly "x2 + x3" ] in
  let lin, matrix = B.Linearize.build polys in
  check_int "rows" 2 (Gf2.Matrix.rows matrix);
  check_int "columns = distinct monomials" 4 (B.Linearize.n_columns lin);
  (* rows convert back to the original polynomials *)
  List.iteri
    (fun i p ->
      check ("row " ^ string_of_int i) true
        (P.equal p (B.Linearize.poly_of_row lin (Gf2.Matrix.row matrix i))))
    polys

let test_linearize_column_order () =
  (* columns are in graded order: higher degree leftmost *)
  let polys = [ poly "x1*x2*x3 + x1*x2 + x1 + 1" ] in
  let lin, _ = B.Linearize.build polys in
  let degrees = Array.to_list (Array.map Anf.Monomial.degree (B.Linearize.columns lin)) in
  check "degrees non-increasing" true
    (degrees = List.sort (fun a b -> Int.compare b a) degrees)

let test_linearize_cells () =
  let polys = [ poly "x1*x2 + x3"; poly "x3 + x4" ] in
  (* distinct monomials: x1x2, x3, x4 -> 2 rows x 3 cols *)
  check_int "cells" 6 (B.Linearize.cells polys)

let prop_linearize_row_roundtrip =
  QCheck.Test.make ~name:"linearize: poly_of_row inverts build" ~count:200 arb_system
    (fun polys ->
      let polys = List.filter (fun p -> not (P.is_zero p)) polys in
      QCheck.assume (polys <> []);
      let lin, matrix = B.Linearize.build polys in
      List.for_all2
        (fun p i -> P.equal p (B.Linearize.poly_of_row lin (Gf2.Matrix.row matrix i)))
        polys
        (List.init (List.length polys) Fun.id))

let test_facts_store () =
  let f = B.Facts.create () in
  check "new fact" true (B.Facts.add f B.Facts.Xl (poly "x1 + 1"));
  check "duplicate rejected" false (B.Facts.add f B.Facts.Elimlin (poly "x1 + 1"));
  check "zero rejected" false (B.Facts.add f B.Facts.Xl P.zero);
  check_int "size" 1 (B.Facts.size f);
  check_int "attributed to first origin" 1 (B.Facts.count_by f B.Facts.Xl);
  check_int "not to second" 0 (B.Facts.count_by f B.Facts.Elimlin);
  check_int "batch add" 2
    (B.Facts.add_all f B.Facts.Sat_solver [ poly "x2"; poly "x3"; poly "x2" ]);
  check "mem" true (B.Facts.mem f (poly "x2"));
  (* insertion order is preserved *)
  match B.Facts.to_list f with
  | (o1, p1) :: _ ->
      check "first is the xl fact" true (o1 = B.Facts.Xl && P.equal p1 (poly "x1 + 1"))
  | [] -> Alcotest.fail "expected facts"

let infra_suite =
  [
    ( "bosphorus.infra",
      [
        Alcotest.test_case "linearize roundtrip" `Quick test_linearize_roundtrip;
        Alcotest.test_case "linearize column order" `Quick test_linearize_column_order;
        Alcotest.test_case "linearize cells" `Quick test_linearize_cells;
        QCheck_alcotest.to_alcotest prop_linearize_row_roundtrip;
        Alcotest.test_case "facts store" `Quick test_facts_store;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Parallel pipeline stages: each parallel path must reproduce its
   sequential twin exactly (same list, same matrix).                    *)
(* ------------------------------------------------------------------ *)

let random_system ~n_polys ~n_vars ~terms seed =
  let rng = Random.State.make [| seed |] in
  List.init n_polys (fun _ ->
      P.of_monomials
        (List.init terms (fun _ ->
             Anf.Monomial.of_vars
               (List.init 2 (fun _ -> 1 + Random.State.int rng n_vars)))))

let test_linearize_parallel_identical () =
  let polys = random_system ~n_polys:40 ~n_vars:16 ~terms:6 23 in
  let seq = B.Linearize.reduce ~jobs:1 polys in
  let par = B.Linearize.reduce ~jobs:3 polys in
  check_int "same column count" seq.B.Linearize.n_columns par.B.Linearize.n_columns;
  check_int "same rank" seq.B.Linearize.rank par.B.Linearize.rank;
  check "same rows" true (List.equal P.equal seq.B.Linearize.rows par.B.Linearize.rows)

let test_xl_run_parallel_config () =
  let polys = table1_system () in
  let run jobs =
    B.Xl.run
      ~config:{ B.Config.default with B.Config.jobs }
      ~rng:(Random.State.make [| 0 |]) polys
  in
  let seq = run 1 and par = run 3 in
  check_int "same rank" seq.B.Xl.rank par.B.Xl.rank;
  check "same facts" true
    (List.length seq.B.Xl.facts = List.length par.B.Xl.facts
    && List.for_all2 P.equal seq.B.Xl.facts par.B.Xl.facts)

let test_elimlin_parallel_config () =
  let polys = random_system ~n_polys:25 ~n_vars:12 ~terms:4 31 in
  let seq = B.Elimlin.run_full ~jobs:1 polys and par = B.Elimlin.run_full ~jobs:3 polys in
  check "same facts" true
    (List.length seq.B.Elimlin.facts = List.length par.B.Elimlin.facts
    && List.for_all2 P.equal seq.B.Elimlin.facts par.B.Elimlin.facts)

let parallel_suite =
  [
    ( "bosphorus.parallel",
      [
        Alcotest.test_case "linearize identical under jobs" `Quick
          test_linearize_parallel_identical;
        Alcotest.test_case "xl run with config.jobs" `Quick test_xl_run_parallel_config;
        Alcotest.test_case "elimlin with jobs" `Quick test_elimlin_parallel_config;
      ] );
  ]

let suite = main_suite @ groebner_suite @ infra_suite @ parallel_suite
