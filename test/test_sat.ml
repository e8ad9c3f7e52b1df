(* Tests for the CDCL SAT solver. *)

module L = Cnf.Lit
module S = Sat.Solver

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let clause lits = List.map L.of_dimacs lits

let solver_of_dimacs_clauses ~nvars cls =
  let s = S.create ~nvars () in
  List.iter (fun c -> ignore (S.add_clause s (clause c))) cls;
  s

let is_sat = function Sat.Types.Sat _ -> true | Sat.Types.Unsat | Sat.Types.Undecided -> false
let is_unsat = function Sat.Types.Unsat -> true | Sat.Types.Sat _ | Sat.Types.Undecided -> false

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty_formula () =
  let s = S.create ~nvars:3 () in
  check "sat" true (is_sat (S.solve s))

let test_single_unit () =
  let s = solver_of_dimacs_clauses ~nvars:1 [ [ 1 ] ] in
  (match S.solve s with
  | Sat.Types.Sat model -> check "x0 true" true model.(0)
  | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "expected SAT");
  check_int "one root unit" 1 (List.length (S.root_units s))

let test_contradictory_units () =
  let s = S.create ~nvars:1 () in
  check "first ok" true (S.add_clause s (clause [ 1 ]));
  check "second fails" false (S.add_clause s (clause [ -1 ]));
  check "unsat" true (is_unsat (S.solve s));
  check "not okay" false (S.okay s)

let test_implication_chain () =
  (* x0, x0->x1, x1->x2, ..., all forced true *)
  let n = 30 in
  let cls = [ 1 ] :: List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]) in
  let s = solver_of_dimacs_clauses ~nvars:n cls in
  match S.solve s with
  | Sat.Types.Sat model -> check "all true" true (Array.for_all Fun.id model)
  | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "expected SAT"

let test_simple_unsat () =
  (* (x|y) (x|~y) (~x|y) (~x|~y) *)
  let s = solver_of_dimacs_clauses ~nvars:2 [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  check "unsat" true (is_unsat (S.solve s))

let test_tautology_ignored () =
  let s = solver_of_dimacs_clauses ~nvars:2 [ [ 1; -1 ] ] in
  check "sat" true (is_sat (S.solve s))

let test_duplicate_literals () =
  let s = solver_of_dimacs_clauses ~nvars:1 [ [ 1; 1; 1 ] ] in
  match S.solve s with
  | Sat.Types.Sat model -> check "forced" true model.(0)
  | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "expected SAT"

let pigeonhole ~holes =
  (* PHP(holes+1, holes): unsatisfiable.  Pigeon p in hole h is variable
     p*holes + h + 1 (DIMACS). *)
  let pigeons = holes + 1 in
  let v p h = (p * holes) + h + 1 in
  let at_least = List.init pigeons (fun p -> List.init holes (fun h -> v p h)) in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 -> if p2 > p1 then Some [ -(v p1 h); -(v p2 h) ] else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  at_least @ at_most

let test_pigeonhole_unsat () =
  List.iter
    (fun holes ->
      let s = solver_of_dimacs_clauses ~nvars:((holes + 1) * holes) (pigeonhole ~holes) in
      check (Printf.sprintf "php %d unsat" holes) true (is_unsat (S.solve s)))
    [ 2; 3; 4; 5 ]

let test_pigeonhole_sat_when_equal () =
  (* pigeons = holes: satisfiable (drop the extra pigeon). *)
  let holes = 4 in
  let v p h = (p * holes) + h + 1 in
  let cls =
    List.init holes (fun p -> List.init holes (fun h -> v p h))
    @ List.concat_map
        (fun h ->
          List.concat_map
            (fun p1 ->
              List.filter_map
                (fun p2 -> if p2 > p1 then Some [ -(v p1 h); -(v p2 h) ] else None)
                (List.init holes Fun.id))
            (List.init holes Fun.id))
        (List.init holes Fun.id)
  in
  let s = solver_of_dimacs_clauses ~nvars:(holes * holes) cls in
  check "sat" true (is_sat (S.solve s))

let test_conflict_budget () =
  (* A hard instance with a tiny budget must return Undecided. *)
  let holes = 7 in
  let s = solver_of_dimacs_clauses ~nvars:((holes + 1) * holes) (pigeonhole ~holes) in
  match S.solve ~conflict_budget:5 s with
  | Sat.Types.Undecided -> ()
  | Sat.Types.Sat _ -> Alcotest.fail "php8x7 should not be SAT"
  | Sat.Types.Unsat -> Alcotest.fail "budget of 5 conflicts cannot refute php8x7"

let test_conflict_budget_exact () =
  (* Regression pin for the documented off-by-at-most-one contract: an
     Undecided return under budget b >= 1 spends exactly b conflicts; a
     budget of 0 still permits the single conflict needed to notice it.
     The driver's cumulative accounting (Harness.Budget) relies on this —
     it charges solver-reported stats diffs, never requested budgets. *)
  let holes = 8 in
  let fresh () =
    solver_of_dimacs_clauses ~nvars:((holes + 1) * holes) (pigeonhole ~holes)
  in
  List.iter
    (fun b ->
      let s = fresh () in
      (match S.solve ~conflict_budget:b s with
      | Sat.Types.Undecided -> ()
      | Sat.Types.Sat _ | Sat.Types.Unsat ->
          Alcotest.failf "budget %d cannot decide php9x8" b);
      check_int
        (Printf.sprintf "budget %d spends exactly %d conflicts" b b)
        b (S.stats s).Sat.Types.conflicts)
    [ 1; 5; 50 ];
  let s = fresh () in
  (match S.solve ~conflict_budget:0 s with
  | Sat.Types.Undecided -> ()
  | Sat.Types.Sat _ | Sat.Types.Unsat -> Alcotest.fail "budget 0 cannot decide");
  check_int "budget 0 spends the one noticing conflict" 1
    (S.stats s).Sat.Types.conflicts;
  (* cumulative accounting across calls on one solver: the second call
     adds exactly its own budget on top of the first's *)
  let s = fresh () in
  ignore (S.solve ~conflict_budget:7 s);
  let c1 = (S.stats s).Sat.Types.conflicts in
  check_int "first call charged exactly" 7 c1;
  (match S.solve ~conflict_budget:11 s with
  | Sat.Types.Undecided -> ()
  | Sat.Types.Sat _ | Sat.Types.Unsat -> Alcotest.fail "still undecidable");
  check_int "stats diff is the second budget" 11 ((S.stats s).Sat.Types.conflicts - c1)

let test_budget_resume () =
  (* Solving again without budget after Undecided completes the proof. *)
  let holes = 5 in
  let s = solver_of_dimacs_clauses ~nvars:((holes + 1) * holes) (pigeonhole ~holes) in
  (match S.solve ~conflict_budget:3 s with
  | Sat.Types.Undecided -> ()
  | Sat.Types.Sat _ | Sat.Types.Unsat -> Alcotest.fail "expected Undecided on tiny budget");
  check "resumed to unsat" true (is_unsat (S.solve s))

let test_model_satisfies_formula () =
  let cls = [ [ 1; 2; -3 ]; [ -1; 3 ]; [ 2; 3 ]; [ -2; -3; 1 ] ] in
  let s = solver_of_dimacs_clauses ~nvars:3 cls in
  match S.solve s with
  | Sat.Types.Sat model ->
      let assignment v = model.(v) in
      List.iter
        (fun c ->
          check "clause satisfied" true
            (List.exists (fun d -> L.eval assignment (L.of_dimacs d)) c))
        cls
  | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "expected SAT"

let test_new_var_growth () =
  let s = S.create ~nvars:0 () in
  let a = S.new_var s in
  let b = S.new_var s in
  check_int "vars allocated" 2 (S.nvars s);
  ignore (S.add_clause s [ L.pos a; L.pos b ]);
  check "sat" true (is_sat (S.solve s))

let test_add_formula () =
  let f =
    Cnf.Dimacs.parse_string "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"
  in
  let s = S.create ~nvars:0 () in
  check "added" true (S.add_formula s f);
  check "sat" true (is_sat (S.solve s))

let test_stats_populated () =
  let holes = 5 in
  let s = solver_of_dimacs_clauses ~nvars:((holes + 1) * holes) (pigeonhole ~holes) in
  ignore (S.solve s);
  let st = S.stats s in
  check "conflicts counted" true (st.Sat.Types.conflicts > 0);
  check "decisions counted" true (st.Sat.Types.decisions > 0);
  check "propagations counted" true (st.Sat.Types.propagations > 0);
  check "watcher visits counted" true (st.Sat.Types.watch_visits > 0);
  check "blocker hits counted" true (st.Sat.Types.blocker_hits > 0);
  check "blocker hits within visits" true
    (st.Sat.Types.blocker_hits <= st.Sat.Types.watch_visits)

(* ------------------------------------------------------------------ *)
(* Native XOR constraints                                              *)
(* ------------------------------------------------------------------ *)

let test_xor_unit_propagation () =
  (* x0+x1+x2 = 1 with x0 = 0, x1 = 1 forces x2 = 0 *)
  let s = S.create ~nvars:3 () in
  check "xor added" true (S.add_xor s ~vars:[ 0; 1; 2 ] ~parity:true);
  ignore (S.add_clause s (clause [ -1 ]));
  ignore (S.add_clause s (clause [ 2 ]));
  match S.solve s with
  | Sat.Types.Sat model ->
      check "x2 forced false" false model.(2)
  | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "expected SAT"

let test_xor_chain_conflict () =
  (* x0+x1=1, x1+x2=1, x0+x2=1: odd cycle, UNSAT *)
  let s = S.create ~nvars:3 () in
  check "a" true (S.add_xor s ~vars:[ 0; 1 ] ~parity:true);
  check "b" true (S.add_xor s ~vars:[ 1; 2 ] ~parity:true);
  check "c" true (S.add_xor s ~vars:[ 0; 2 ] ~parity:true);
  check "unsat" true (is_unsat (S.solve s))

let test_xor_root_folding () =
  (* duplicate variables cancel; root units fold into the parity *)
  let s = S.create ~nvars:3 () in
  ignore (S.add_clause s (clause [ 1 ]));
  (* x0 = 1, so x0+x1+x1+x2 = 1 reduces to x2 = 0 *)
  check "added" true (S.add_xor s ~vars:[ 0; 1; 1; 2 ] ~parity:true);
  match S.solve s with
  | Sat.Types.Sat model -> check "x2 false" false model.(2)
  | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "expected SAT"

let test_xor_empty_inconsistent () =
  let s = S.create ~nvars:1 () in
  ignore (S.add_clause s (clause [ 1 ]));
  (* x0+x0 = 1 folds to 0 = 1 *)
  check "conflict" false (S.add_xor s ~vars:[ 0; 0 ] ~parity:true);
  check "unsat" true (is_unsat (S.solve s))

let test_xor_long_chain_sat () =
  (* a long xor chain with one anchor: x0=1 and x_i + x_{i+1} = 1 forces an
     alternating assignment *)
  let n = 40 in
  let s = S.create ~nvars:n () in
  ignore (S.add_clause s (clause [ 1 ]));
  for i = 0 to n - 2 do
    ignore (S.add_xor s ~vars:[ i; i + 1 ] ~parity:true)
  done;
  match S.solve s with
  | Sat.Types.Sat model ->
      for i = 0 to n - 1 do
        check "alternating" (i mod 2 = 0) model.(i)
      done
  | Sat.Types.Unsat | Sat.Types.Undecided -> Alcotest.fail "expected SAT"

let prop_native_xor_matches_brute_force =
  (* random mixed CNF + XOR systems: the native engine agrees with brute
     force over the clause encoding of the same xors *)
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 2 9 in
      let* n_clauses = int_range 0 10 in
      let* clauses =
        list_repeat n_clauses
          (let* len = int_range 1 3 in
           list_repeat len
             (let* v = int_bound (nvars - 1) in
              let* s = bool in
              return (if s then v + 1 else -(v + 1))))
      in
      let* n_xors = int_range 1 6 in
      let* xors =
        list_repeat n_xors
          (let* len = int_range 2 4 in
           let* vars = list_repeat len (int_bound (nvars - 1)) in
           let* parity = bool in
           return (vars, parity))
      in
      return (nvars, clauses, xors))
  in
  QCheck.Test.make ~name:"native xor engine agrees with brute force" ~count:300
    (QCheck.make
       ~print:(fun (n, cls, xors) ->
         Printf.sprintf "nvars=%d cls=%s xors=%s" n
           (String.concat ";" (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls))
           (String.concat ";"
              (List.map
                 (fun (vs, p) ->
                   String.concat "+" (List.map string_of_int vs) ^ "=" ^ string_of_bool p)
                 xors)))
       gen)
    (fun (nvars, cls, xors) ->
      (* reference: encode xors as clauses *)
      let xor_clauses =
        List.concat_map
          (fun (vars, parity) ->
            Sat.Xor_module.clauses_of_xor (Sat.Xor_module.make_xor ~vars ~parity))
          xors
      in
      let base_clauses = List.map (fun c -> Cnf.Clause.of_list (List.map L.of_dimacs c)) cls in
      let f = Cnf.Formula.create ~nvars (base_clauses @ xor_clauses) in
      let expected = Cnf.Formula.brute_force_sat f = Some true in
      (* native: clauses plus add_xor *)
      let s = S.create ~nvars () in
      let ok =
        List.for_all (fun c -> S.add_clause s (clause c)) cls
        && List.for_all (fun (vars, parity) -> S.add_xor s ~vars ~parity) xors
      in
      if not ok then not expected
      else
        match S.solve s with
        | Sat.Types.Sat model -> expected && Cnf.Formula.eval (fun v -> model.(v)) f
        | Sat.Types.Unsat -> not expected
        | Sat.Types.Undecided -> false)

(* ------------------------------------------------------------------ *)
(* Property tests: CDCL agrees with brute force                        *)
(* ------------------------------------------------------------------ *)

let random_cnf_gen =
  QCheck.Gen.(
    let* nvars = int_range 1 10 in
    let* n_clauses = int_range 1 40 in
    let* clauses =
      list_repeat n_clauses
        (let* len = int_range 1 4 in
         list_repeat len
           (let* v = int_bound (nvars - 1) in
            let* s = bool in
            return (if s then v + 1 else -(v + 1))))
    in
    return (nvars, clauses))

let arb_cnf =
  QCheck.make
    ~print:(fun (n, cls) ->
      Printf.sprintf "nvars=%d %s" n
        (String.concat " ; " (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls)))
    random_cnf_gen

let formula_of (nvars, cls) =
  Cnf.Formula.create ~nvars
    (List.map (fun c -> Cnf.Clause.of_list (List.map L.of_dimacs c)) cls)

let prop_cdcl_matches_brute_force =
  QCheck.Test.make ~name:"solver agrees with brute force" ~count:500 arb_cnf
    (fun (nvars, cls) ->
      let f = formula_of (nvars, cls) in
      let expected = Cnf.Formula.brute_force_sat f in
      let s = solver_of_dimacs_clauses ~nvars cls in
      let got = S.solve s in
      match (expected, got) with
      | Some true, Sat.Types.Sat model -> Cnf.Formula.eval (fun v -> model.(v)) f
      | Some false, Sat.Types.Unsat -> true
      | _, Sat.Types.Undecided -> false
      | Some true, Sat.Types.Unsat | Some false, Sat.Types.Sat _ | None, _ -> false)

let prop_root_units_are_consequences =
  QCheck.Test.make ~name:"root units are logical consequences" ~count:200 arb_cnf
    (fun (nvars, cls) ->
      let f = formula_of (nvars, cls) in
      let s = solver_of_dimacs_clauses ~nvars cls in
      ignore (S.solve s);
      if not (S.okay s) then true
      else
        (* every model of f must satisfy every root unit *)
        let units = S.root_units s in
        let ok = ref true in
        (try
           for mask = 0 to (1 lsl Cnf.Formula.nvars f) - 1 do
             let assignment v = mask lsr v land 1 = 1 in
             if Cnf.Formula.eval assignment f then
               List.iter
                 (fun u -> if L.var u < Cnf.Formula.nvars f && not (L.eval assignment u) then ok := false)
                 units
           done
         with Invalid_argument _ -> ());
        !ok)

let prop_learnt_clauses_are_implied =
  QCheck.Test.make ~name:"learnt clauses are implied by the formula" ~count:150 arb_cnf
    (fun (nvars, cls) ->
      let f = formula_of (nvars, cls) in
      let s = solver_of_dimacs_clauses ~nvars cls in
      ignore (S.solve s);
      let learnts = S.learnt_clauses s in
      let ok = ref true in
      for mask = 0 to (1 lsl Cnf.Formula.nvars f) - 1 do
        let assignment v = mask lsr v land 1 = 1 in
        if Cnf.Formula.eval assignment f then
          List.iter
            (fun c ->
              if
                List.for_all (fun l -> L.var l < Cnf.Formula.nvars f) c
                && not (List.exists (L.eval assignment) c)
              then ok := false)
            learnts
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cdcl_matches_brute_force;
      prop_root_units_are_consequences;
      prop_learnt_clauses_are_implied;
      prop_native_xor_matches_brute_force;
    ]

let main_suite =
  [
    ( "sat.solver",
      [
        Alcotest.test_case "empty formula" `Quick test_empty_formula;
        Alcotest.test_case "single unit" `Quick test_single_unit;
        Alcotest.test_case "contradictory units" `Quick test_contradictory_units;
        Alcotest.test_case "implication chain" `Quick test_implication_chain;
        Alcotest.test_case "simple unsat" `Quick test_simple_unsat;
        Alcotest.test_case "tautology ignored" `Quick test_tautology_ignored;
        Alcotest.test_case "duplicate literals" `Quick test_duplicate_literals;
        Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
        Alcotest.test_case "pigeonhole sat at equality" `Quick test_pigeonhole_sat_when_equal;
        Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
        Alcotest.test_case "conflict budget exact off-by-one" `Quick
          test_conflict_budget_exact;
        Alcotest.test_case "budget then resume" `Quick test_budget_resume;
        Alcotest.test_case "model satisfies formula" `Quick test_model_satisfies_formula;
        Alcotest.test_case "new_var growth" `Quick test_new_var_growth;
        Alcotest.test_case "add_formula" `Quick test_add_formula;
        Alcotest.test_case "stats populated" `Quick test_stats_populated;
      ] );
    ( "sat.native_xor",
      [
        Alcotest.test_case "unit propagation through xor" `Quick test_xor_unit_propagation;
        Alcotest.test_case "odd cycle conflict" `Quick test_xor_chain_conflict;
        Alcotest.test_case "root folding" `Quick test_xor_root_folding;
        Alcotest.test_case "degenerate inconsistency" `Quick test_xor_empty_inconsistent;
        Alcotest.test_case "long alternating chain" `Quick test_xor_long_chain_sat;
      ] );
    ("sat.properties", qcheck_cases);
  ]

(* ------------------------------------------------------------------ *)
(* Proof logging and RUP checking                                      *)
(* ------------------------------------------------------------------ *)

let test_proof_simple_unsat () =
  let cls = [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  let s = S.create ~nvars:2 () in
  S.enable_proof s;
  List.iter (fun c -> ignore (S.add_clause s (clause c))) cls;
  check "unsat" true (is_unsat (S.solve s));
  let proof = S.proof s in
  check "ends with empty clause" true (List.mem (Sat.Proof.Rup []) proof);
  let f = Cnf.Formula.create ~nvars:2 (List.map (fun c -> Cnf.Clause.of_list (clause c)) cls) in
  check "certificate verifies" true (Sat.Proof.check f proof)

let test_proof_pigeonhole () =
  List.iter
    (fun holes ->
      let cls = pigeonhole ~holes in
      let nvars = (holes + 1) * holes in
      let s = S.create ~nvars () in
      S.enable_proof s;
      List.iter (fun c -> ignore (S.add_clause s (clause c))) cls;
      check "unsat" true (is_unsat (S.solve s));
      let f =
        Cnf.Formula.create ~nvars (List.map (fun c -> Cnf.Clause.of_list (clause c)) cls)
      in
      check
        (Printf.sprintf "php %d certificate verifies" holes)
        true
        (Sat.Proof.check f (S.proof s)))
    [ 3; 4; 5 ]

let test_proof_rejects_bogus () =
  (* a fabricated certificate must be rejected *)
  let f = Cnf.Dimacs.parse_string "p cnf 3 2\n1 2 0\n-1 3 0\n" in
  (* claiming the empty clause out of thin air *)
  check "bogus rejected" false (Sat.Proof.check f [ Sat.Proof.Rup [] ]);
  (* claiming a non-implied unit *)
  check "non-implied step rejected" false
    (Sat.Proof.check f [ Sat.Proof.Rup [ L.pos 0 ]; Sat.Proof.Rup [] ]);
  (* a missing empty clause is not a certificate *)
  check "no empty clause" false
    (Sat.Proof.check f [ Sat.Proof.Rup [ L.pos 0; L.pos 2 ] ]);
  (* a parity step is outside the plain DRUP checker's scope *)
  check "parity step rejected" false
    (Sat.Proof.check f [ Sat.Proof.Parity []; Sat.Proof.Rup [] ])

let test_proof_is_rup_direct () =
  (* from (a|b) and (~a|b), b is RUP *)
  let clauses = [ [ L.pos 0; L.pos 1 ]; [ L.neg_of 0; L.pos 1 ] ] in
  check "b is rup" true (Sat.Proof.is_rup ~clauses [ L.pos 1 ]);
  check "a is not rup" false (Sat.Proof.is_rup ~clauses [ L.pos 0 ]);
  (* tautological step is trivially fine *)
  check "tautology" true (Sat.Proof.is_rup ~clauses [ L.pos 2; L.neg_of 2 ])

let test_proof_is_rup_edge_cases () =
  (* empty clause list: nothing propagates, nothing conflicts *)
  check "empty formula, unit step" false (Sat.Proof.is_rup ~clauses:[] [ L.pos 0 ]);
  check "empty formula, empty step" false (Sat.Proof.is_rup ~clauses:[] []);
  (* contradictory units make the empty clause RUP *)
  let contradictory = [ [ L.pos 0 ]; [ L.neg_of 0 ] ] in
  check "empty step vs x & ~x" true (Sat.Proof.is_rup ~clauses:contradictory []);
  (* unit-clause steps chain through propagation: x0, x0->x1, x1->x2 *)
  let chain = [ [ L.pos 0 ]; [ L.neg_of 0; L.pos 1 ]; [ L.neg_of 1; L.pos 2 ] ] in
  check "unit step x1" true (Sat.Proof.is_rup ~clauses:chain [ L.pos 1 ]);
  check "unit step x2" true (Sat.Proof.is_rup ~clauses:chain [ L.pos 2 ]);
  (* a deliberately non-RUP step: x3 is unconstrained *)
  check "non-rup step" false (Sat.Proof.is_rup ~clauses:chain [ L.pos 3 ]);
  check "non-rup negated unit" false (Sat.Proof.is_rup ~clauses:chain [ L.neg_of 2 ])

let test_proof_check_requires_empty_clause () =
  (* a valid derivation that never reaches the empty clause is not a
     refutation certificate *)
  let f =
    Cnf.Formula.create ~nvars:2
      [
        Cnf.Clause.of_list [ L.pos 0; L.pos 1 ];
        Cnf.Clause.of_list [ L.neg_of 0; L.pos 1 ];
      ]
  in
  check "rup steps but no empty clause" false (Sat.Proof.check f [ Sat.Proof.Rup [ L.pos 1 ] ]);
  check "empty proof" false (Sat.Proof.check f [])

let test_invariant_violations_healthy () =
  let s =
    solver_of_dimacs_clauses ~nvars:4
      [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3; 4 ]; [ 1; -4 ] ]
  in
  Alcotest.(check (list string)) "fresh solver" [] (S.invariant_violations s);
  ignore (S.solve s);
  Alcotest.(check (list string)) "after solve" [] (S.invariant_violations s)

let prop_unsat_proofs_verify =
  QCheck.Test.make ~name:"every UNSAT run yields a verifiable certificate" ~count:300
    arb_cnf
    (fun (nvars, cls) ->
      let f = formula_of (nvars, cls) in
      let s = S.create ~nvars () in
      S.enable_proof s;
      List.iter (fun c -> ignore (S.add_clause s (clause c))) cls;
      match S.solve s with
      | Sat.Types.Unsat -> Sat.Proof.check f (S.proof s)
      | Sat.Types.Sat _ | Sat.Types.Undecided -> true)

(* ------------------------------------------------------------------ *)
(* Probing                                                             *)
(* ------------------------------------------------------------------ *)

let test_probe_implications () =
  (* x0 -> x1 -> x2: probing x0 implies x1 and x2 *)
  let s = solver_of_dimacs_clauses ~nvars:3 [ [ -1; 2 ]; [ -2; 3 ] ] in
  (match S.probe s (L.pos 0) with
  | `Implied lits ->
      let vars = List.sort Int.compare (List.map L.var lits) in
      Alcotest.(check (list int)) "implied x1 x2" [ 1; 2 ] vars;
      check "all positive" true (List.for_all (fun l -> not (L.negated l)) lits)
  | `Conflict | `Unusable -> Alcotest.fail "expected implications");
  (* state restored: solver still solves *)
  check "still solvable" true (is_sat (S.solve s))

let test_probe_failed_literal () =
  (* x0 -> x1 and x0 -> ~x1: assuming x0 conflicts, so ~x0 is forced *)
  let s = solver_of_dimacs_clauses ~nvars:2 [ [ -1; 2 ]; [ -1; -2 ] ] in
  (match S.probe s (L.pos 0) with
  | `Conflict -> ()
  | `Implied _ | `Unusable -> Alcotest.fail "expected a failed literal");
  (match S.probe s (L.neg_of 0) with
  | `Implied [] -> ()
  | `Implied _ -> Alcotest.fail "~x0 implies nothing here"
  | `Conflict | `Unusable -> Alcotest.fail "~x0 is consistent");
  check "still solvable" true (is_sat (S.solve s))

let test_probe_assigned_unusable () =
  let s = solver_of_dimacs_clauses ~nvars:2 [ [ 1 ] ] in
  ignore (S.solve s);
  match S.probe s (L.pos 0) with
  | `Unusable -> ()
  | `Conflict | `Implied _ -> Alcotest.fail "probing an assigned literal"

let test_driver_probing_learns_equivalence () =
  (* x1 xor x2 = 1 encoded nonlinearly enough that only probing (not the
     classify shapes) sees it... simplest: give the driver a system where
     probing must find v equivalences through CNF implications.  Use the
     xor clauses directly via CNF -> ANF with probing on. *)
  let config =
    { Bosphorus.Config.default with Bosphorus.Config.sat_probe_vars = 8 }
  in
  let polys = [ Anf.Anf_io.poly_of_string "x0*x1 + x0 + x1" ] in
  (* x0*x1 + x0 + x1 = 0 means x0 or x1 is 0... and (x0,x1) != (1,1):
     actually it forces x0 = x1 = 0 or exactly one... truth table:
     00->0 ok; 01->1 no; 10->1 no; 11->1+1+1=1 no. Unique solution x0=x1=0. *)
  match (Bosphorus.Driver.run ~config polys).Bosphorus.Driver.status with
  | Bosphorus.Driver.Solved_sat sol ->
      check "x0=0" false (List.assoc 0 sol);
      check "x1=0" false (List.assoc 1 sol)
  | Bosphorus.Driver.Solved_unsat | Bosphorus.Driver.Processed
  | Bosphorus.Driver.Degraded ->
      Alcotest.fail "expected solution"

let prop_probing_driver_sound =
  QCheck.Test.make ~name:"driver with probing agrees with brute force" ~count:40
    arb_cnf
    (fun (nvars, cls) ->
      let f = formula_of (nvars, cls) in
      let expected = Cnf.Formula.brute_force_sat f = Some true in
      let config =
        { Bosphorus.Config.default with Bosphorus.Config.sat_probe_vars = 16 }
      in
      match (Bosphorus.Driver.run_cnf ~config f).Bosphorus.Driver.status with
      | Bosphorus.Driver.Solved_sat sol ->
          expected
          &&
          let lookup x = try List.assoc x sol with Not_found -> false in
          Cnf.Formula.eval lookup f
      | Bosphorus.Driver.Solved_unsat -> not expected
      | Bosphorus.Driver.Processed | Bosphorus.Driver.Degraded -> true)

let probe_suite =
  [
    ( "sat.probe",
      [
        Alcotest.test_case "implications" `Quick test_probe_implications;
        Alcotest.test_case "failed literal" `Quick test_probe_failed_literal;
        Alcotest.test_case "assigned is unusable" `Quick test_probe_assigned_unusable;
        Alcotest.test_case "driver probing solves" `Quick test_driver_probing_learns_equivalence;
        QCheck_alcotest.to_alcotest prop_probing_driver_sound;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

let test_enumerate_simple () =
  (* (x0 | x1) has 3 models *)
  let f = formula_of (2, [ [ 1; 2 ] ]) in
  (match Enumerate.models f with
  | ms, true ->
      check_int "three models" 3 (List.length ms);
      List.iter (fun m -> check "model valid" true (Cnf.Formula.eval (fun v -> m.(v)) f)) ms
  | _, false -> Alcotest.fail "enumeration should complete");
  check "count" true (Enumerate.count f = Some 3)

let test_enumerate_limit () =
  (* unconstrained over 6 vars: 64 models; limit 10 stops early *)
  let f = Cnf.Formula.create ~nvars:6 [ Cnf.Clause.of_list [ L.pos 0; L.neg_of 0 ] ] in
  let f = Cnf.Formula.add_clause f (Cnf.Clause.of_list [ L.pos 0; L.pos 1 ]) in
  match Enumerate.models ~limit:10 f with
  | ms, false -> check_int "stopped at limit" 10 (List.length ms)
  | _, true -> Alcotest.fail "limit should bind"

let test_enumerate_exact_boundary () =
  let f = formula_of (2, [ [ 1; -1 ] ]) in
  (* below the model count: incomplete by construction *)
  (match Enumerate.models ~limit:3 f with
  | ms, complete ->
      check_int "three found" 3 (List.length ms);
      check "not complete" false complete);
  (* above the model count: complete *)
  match Enumerate.models ~limit:5 f with
  | ms, complete ->
      check_int "all four" 4 (List.length ms);
      check "certified complete" true complete

let test_enumerate_projection () =
  (* x0 free, x1 constrained equal to x2: projecting on {1,2} gives 2 *)
  let f =
    formula_of (3, [ [ -2; 3 ]; [ 2; -3 ] ])
  in
  check "projected" true (Enumerate.count ~relevant:[ 1; 2 ] f = Some 2);
  check "unprojected" true (Enumerate.count f = Some 4)

let test_enumerate_unsat () =
  let f = formula_of (1, [ [ 1 ]; [ -1 ] ]) in
  check "no models" true (Enumerate.count f = Some 0)

let prop_enumeration_matches_brute_force =
  QCheck.Test.make ~name:"enumeration count = brute force count" ~count:200 arb_cnf
    (fun (nvars, cls) ->
      let f = formula_of (nvars, cls) in
      (* nvars <= 10, so 2048 strictly exceeds the maximum model count *)
      Enumerate.count ~limit:2048 f = Some (Cnf.Formula.brute_force_count f))

let prop_driver_preserves_projected_count =
  (* Section V via enumeration: the processed CNF of the driver has exactly
     the original formula's models when projected to the original
     variables *)
  QCheck.Test.make ~name:"bosphorus preserves projected model count" ~count:60 arb_cnf
    (fun (nvars, cls) ->
      let f = formula_of (nvars, cls) in
      let config =
        { Bosphorus.Config.default with Bosphorus.Config.stop_on_solution = false }
      in
      let outcome = Bosphorus.Driver.run_cnf ~config f in
      match outcome.Bosphorus.Driver.status with
      | Bosphorus.Driver.Solved_unsat -> Cnf.Formula.brute_force_count f = 0
      | Bosphorus.Driver.Solved_sat _ | Bosphorus.Driver.Processed
      | Bosphorus.Driver.Degraded ->
          let augmented = Bosphorus.Driver.augmented_cnf f outcome in
          let relevant = List.init (Cnf.Formula.nvars f) Fun.id in
          Enumerate.count ~limit:4096 ~relevant augmented
          = Some (Cnf.Formula.brute_force_count f))

let enumerate_suite =
  [
    ( "sat.enumerate",
      [
        Alcotest.test_case "simple" `Quick test_enumerate_simple;
        Alcotest.test_case "limit" `Quick test_enumerate_limit;
        Alcotest.test_case "exact boundary" `Quick test_enumerate_exact_boundary;
        Alcotest.test_case "projection" `Quick test_enumerate_projection;
        Alcotest.test_case "unsat" `Quick test_enumerate_unsat;
        QCheck_alcotest.to_alcotest prop_enumeration_matches_brute_force;
        QCheck_alcotest.to_alcotest prop_driver_preserves_projected_count;
      ] );
  ]

let proof_suite =
  [
    ( "sat.proof",
      [
        Alcotest.test_case "simple unsat certificate" `Quick test_proof_simple_unsat;
        Alcotest.test_case "pigeonhole certificates" `Quick test_proof_pigeonhole;
        Alcotest.test_case "bogus certificates rejected" `Quick test_proof_rejects_bogus;
        Alcotest.test_case "is_rup" `Quick test_proof_is_rup_direct;
        Alcotest.test_case "is_rup edge cases" `Quick test_proof_is_rup_edge_cases;
        Alcotest.test_case "check requires empty clause" `Quick
          test_proof_check_requires_empty_clause;
        Alcotest.test_case "invariant_violations healthy" `Quick
          test_invariant_violations_healthy;
        QCheck_alcotest.to_alcotest prop_unsat_proofs_verify;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Domain safety: solver instances share no mutable module state, so     *)
(* distinct instances may run on distinct domains concurrently          *)
(* (portfolio seats and daemon workers rely on this).                    *)
(* ------------------------------------------------------------------ *)

let test_concurrent_solver_instances () =
  let rng () = Random.State.make [| 5 |] in
  let formulas =
    [
      Problems.Generators.pigeonhole ~holes:4;
      Problems.Generators.parity_chain ~vertices:12 ~satisfiable:true ~rng:(rng ());
      Problems.Generators.parity_chain ~vertices:12 ~satisfiable:false ~rng:(rng ());
      Problems.Generators.random_ksat ~nvars:30 ~n_clauses:100 ~k:3 ~rng:(rng ());
      Problems.Generators.pigeonhole ~holes:3;
      Problems.Generators.random_ksat ~nvars:20 ~n_clauses:60 ~k:3 ~rng:(rng ());
    ]
  in
  let solve f =
    let s = S.create ~nvars:(Cnf.Formula.nvars f) () in
    ignore (S.add_formula s f);
    match S.solve s with
    | Sat.Types.Sat _ -> `Sat
    | Sat.Types.Unsat -> `Unsat
    | Sat.Types.Undecided -> `Undecided
  in
  let sequential = List.map solve formulas in
  (* four pinned tasks, each solving every formula starting at its own
     offset, so distinct instances run on distinct domains at once *)
  let n = List.length formulas in
  let rotate k xs = List.filteri (fun i _ -> i >= k) xs @ List.filteri (fun i _ -> i < k) xs in
  let results =
    Runtime.Pool.run_pinned
      (List.init 4 (fun k () -> List.map solve (rotate (k mod n) formulas)))
  in
  List.iteri
    (fun k r ->
      match r with
      | Ok verdicts ->
          check (Printf.sprintf "task %d matches sequential" k) true
            (List.for_all2 ( = ) (rotate (k mod n) sequential) verdicts)
      | Error e -> Alcotest.failf "task %d raised %s" k (Printexc.to_string e))
    results

let concurrency_suite =
  [
    ( "sat.concurrency",
      [ Alcotest.test_case "4-way concurrent solver instances" `Quick
          test_concurrent_solver_instances ] );
  ]

(* ------------------------------------------------------------------ *)
(* Clause arena: lazy detach, compaction, and equivalence               *)
(* ------------------------------------------------------------------ *)

(* Regression: reduce_db must not walk watch lists to detach the clauses
   it deletes.  Construction: a formula large enough that the marked
   learnts stay under the compaction threshold (problem words dominate),
   so the deleted clauses remain on watch lists and are only dropped
   lazily when propagation next visits them. *)
let test_lazy_detach_no_watch_rescan () =
  let rng = Random.State.make [| 42 |] in
  let f = Problems.Generators.random_ksat ~nvars:600 ~n_clauses:2560 ~k:3 ~rng in
  let s = S.create ~nvars:(Cnf.Formula.nvars f) () in
  ignore (S.add_formula s f);
  (match S.solve ~conflict_budget:150 s with
  | Sat.Types.Undecided -> ()
  | Sat.Types.Sat _ | Sat.Types.Unsat ->
      Alcotest.fail "instance decided inside warm-up budget; regression setup broken");
  let st = S.stats s in
  let gcs_before = st.Sat.Types.arena_gcs in
  let drops_before = st.Sat.Types.lazy_detach_drops in
  let live_before = S.n_live_learnts s in
  S.reduce_learnts s;
  check "reduce_db marked learnts" true (S.n_live_learnts s < live_before);
  check "marked clauses merely counted as waste" true (S.arena_wasted_words s > 0);
  check_int "no compaction triggered (learnt words stay under threshold)" gcs_before
    st.Sat.Types.arena_gcs;
  check_int "reduce_db itself touches no watch list" drops_before
    st.Sat.Types.lazy_detach_drops;
  Alcotest.(check (list string)) "stale watchers are a legal state" []
    (S.invariant_violations s);
  (* continued search must shed the stale watchers during propagation *)
  ignore (S.solve ~conflict_budget:2000 s);
  check "propagation lazily dropped deleted watchers" true
    (st.Sat.Types.lazy_detach_drops > drops_before);
  Alcotest.(check (list string)) "invariants hold after lazy drops" []
    (S.invariant_violations s)

let test_compact_mid_search_preserves_verdict () =
  let rng = Random.State.make [| 7 |] in
  let f = Problems.Generators.parity_chain ~vertices:20 ~satisfiable:false ~rng in
  let s = S.create ~nvars:(Cnf.Formula.nvars f) () in
  ignore (S.add_formula s f);
  let rec go budget_rounds =
    match S.solve ~conflict_budget:60 s with
    | Sat.Types.Undecided when budget_rounds > 0 ->
        S.reduce_learnts s;
        S.compact s;
        check_int "compaction leaves no waste" 0 (S.arena_wasted_words s);
        Alcotest.(check (list string)) "invariants hold after compaction" []
          (S.invariant_violations s);
        go (budget_rounds - 1)
    | r -> r
  in
  check "unsat survives repeated mid-search compaction" true (is_unsat (go 200));
  check "at least one compaction actually ran" true
    ((S.stats s).Sat.Types.arena_gcs > 0)

let prop_reduce_compact_matches_brute_force =
  QCheck.Test.make
    ~name:"verdicts and models unchanged by reduce_db + compaction" ~count:200 arb_cnf
    (fun (nvars, cls) ->
      let f = formula_of (nvars, cls) in
      let expected = Cnf.Formula.brute_force_sat f in
      let s = solver_of_dimacs_clauses ~nvars cls in
      (* squeeze the search through many tiny budgets, reducing and
         compacting between every slice *)
      let rec go n =
        match S.solve ~conflict_budget:3 s with
        | Sat.Types.Undecided when n > 0 ->
            S.reduce_learnts s;
            S.compact s;
            go (n - 1)
        | r -> r
      in
      match (expected, go 5000) with
      | Some true, Sat.Types.Sat model -> Cnf.Formula.eval (fun v -> model.(v)) f
      | Some false, Sat.Types.Unsat -> true
      | _, _ -> false)

(* RUP certificates must survive arena compaction: the proof log indexes
   literals, not clause offsets, so moving every clause mid-search cannot
   invalidate the replay. *)
let test_proof_survives_compaction () =
  let f = Problems.Generators.pigeonhole ~holes:4 in
  let s = S.create ~nvars:(Cnf.Formula.nvars f) () in
  S.enable_proof s;
  ignore (S.add_formula s f);
  let rec go n =
    match S.solve ~conflict_budget:25 s with
    | Sat.Types.Undecided when n > 0 ->
        S.reduce_learnts s;
        S.compact s;
        go (n - 1)
    | r -> r
  in
  check "pigeonhole unsat" true (is_unsat (go 1000));
  check "compaction happened during the proof" true
    ((S.stats s).Sat.Types.arena_gcs > 0);
  check "certificate still replays" true (Sat.Proof.check f (S.proof s))

let arena_suite =
  [
    ( "sat.arena",
      [
        Alcotest.test_case "reduce_db does not rescan watch lists" `Quick
          test_lazy_detach_no_watch_rescan;
        Alcotest.test_case "compaction mid-search preserves verdict" `Quick
          test_compact_mid_search_preserves_verdict;
        Alcotest.test_case "proof survives compaction" `Quick
          test_proof_survives_compaction;
        QCheck_alcotest.to_alcotest prop_reduce_compact_matches_brute_force;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Off-heap stores: Bigarray-backed Ivec/Arena vs reference models,     *)
(* and the zero-allocation BCP regression check.                        *)
(* ------------------------------------------------------------------ *)

(* Random op traffic against a plain int-array model: the Bigarray
   rewrite must be observationally identical to the boxed-array vector
   it replaced. *)
let test_ivec_model () =
  let rng = Random.State.make [| 91 |] in
  let v = Sat.Ivec.create ~cap:2 () in
  let model = ref [||] in
  let append xs x = Array.append xs [| x |] in
  for step = 1 to 3_000 do
    let n = Array.length !model in
    (match Random.State.int rng 8 with
    | 0 | 1 ->
        let x = Random.State.int rng 1000 - 500 in
        Sat.Ivec.push v x;
        model := append !model x
    | 2 ->
        let x = Random.State.int rng 1000 and y = Random.State.int rng 1000 in
        Sat.Ivec.push2 v x y;
        model := append (append !model x) y
    | 3 when n > 0 ->
        let i = Random.State.int rng n in
        let x = Random.State.int rng 1000 in
        Sat.Ivec.set v i x;
        !model.(i) <- x
    | 4 when n > 0 ->
        let k = Random.State.int rng (n + 1) in
        Sat.Ivec.shrink v k;
        model := Array.sub !model 0 k
    | 5 ->
        let keep x = x land 1 = 0 in
        Sat.Ivec.filter_in_place keep v;
        model := Array.of_list (List.filter keep (Array.to_list !model))
    | 6 ->
        Sat.Ivec.sort_in_place Int.compare v;
        let xs = Array.copy !model in
        Array.sort Int.compare xs;
        model := xs
    | _ when n > 0 ->
        let i = Random.State.int rng n in
        check_int (Printf.sprintf "step %d get %d" step i) !model.(i) (Sat.Ivec.get v i)
    | _ -> ());
    check_int (Printf.sprintf "step %d size" step) (Array.length !model)
      (Sat.Ivec.size v)
  done;
  Alcotest.(check (list int)) "final contents" (Array.to_list !model)
    (Sat.Ivec.to_list v)

(* Arena vs a reference model of clause records: random allocation
   (array-based and blank/in-place), flag and metadata traffic, then a
   full move-based compaction with forward remapping. *)
let test_arena_model () =
  let rng = Random.State.make [| 92 |] in
  let a = Sat.Arena.create ~cap:16 () in
  (* model: (cref, lits array, learnt, temp, deleted ref, lbd ref, act ref) *)
  let model = ref [] in
  for _ = 1 to 400 do
    let n = Random.State.int rng 9 in
    let lits = Array.init n (fun _ -> Random.State.int rng 1000) in
    let learnt = Random.State.bool rng and temp = Random.State.bool rng in
    let c =
      if Random.State.bool rng then Sat.Arena.alloc a ~learnt ~temp lits
      else begin
        let c = Sat.Arena.alloc_blank a ~learnt ~temp n in
        Array.iteri (fun i x -> Sat.Arena.set_lit a c i x) lits;
        c
      end
    in
    let lbd = Random.State.int rng 30 in
    Sat.Arena.set_lbd a c lbd;
    let act = float_of_int (Random.State.int rng 1000) in
    Sat.Arena.set_activity a c act;
    let deleted =
      if Random.State.int rng 4 = 0 then begin
        Sat.Arena.mark_deleted a c;
        true
      end
      else false
    in
    model := (c, lits, learnt, temp, deleted, lbd, act) :: !model
  done;
  let check_clause arena (c, lits, learnt, temp, deleted, lbd, act) =
    check_int "n_lits" (Array.length lits) (Sat.Arena.n_lits arena c);
    Alcotest.(check (array int)) "lits" lits (Sat.Arena.lits_array arena c);
    check "learnt" learnt (Sat.Arena.learnt arena c);
    check "temp" temp (Sat.Arena.is_temp arena c);
    check "deleted" deleted (Sat.Arena.is_deleted arena c);
    check_int "lbd" lbd (Sat.Arena.lbd arena c);
    Alcotest.(check (float 0.0)) "activity" act (Sat.Arena.activity arena c)
  in
  List.iter (check_clause a) !model;
  (* compact the live clauses into a fresh arena; contents survive the
     move (deletion marks clear by design) and forwarding is stable *)
  let into = Sat.Arena.create () in
  let live = List.filter (fun (_, _, _, _, d, _, _) -> not d) !model in
  let moved =
    List.map
      (fun ((c, lits, learnt, temp, _, lbd, act) as _cl) ->
        let c' = Sat.Arena.move a ~into c in
        check "forwarded" true (Sat.Arena.forwarded a c);
        check_int "forward is stable" c' (Sat.Arena.forward a c);
        check_int "move twice returns same ref" c' (Sat.Arena.move a ~into c);
        (c', lits, learnt, temp, false, lbd, act))
      live
  in
  List.iter (check_clause into) moved

(* The tentpole regression: once the solver's stores have reached steady
   state, redoing an implication chain allocates exactly zero minor-heap
   words — no closures, boxes, or scratch rebuilt per propagation.
   [Gc.minor_words] itself boxes its float result, so the measurement's
   own overhead is measured first and subtracted. *)
let test_burst_propagate_zero_alloc () =
  let n = 120 in
  let s = S.create ~nvars:n () in
  for i = 0 to n - 2 do
    ignore
      (S.add_clause s
         [ L.make i ~negated:true; L.make (i + 1) ~negated:false ])
  done;
  let l0 = L.make 0 ~negated:false in
  ignore (S.burst_propagate s l0 ~reps:10);
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  let w0 = Gc.minor_words () in
  let assigned = S.burst_propagate s l0 ~reps:500 in
  let extra = Gc.minor_words () -. w0 -. overhead in
  check_int "whole chain assigned every rep" (500 * n) assigned;
  Alcotest.(check (float 0.0)) "zero minor words across the burst" 0.0 extra

let offheap_suite =
  [
    ( "sat.offheap",
      [
        Alcotest.test_case "Ivec = int-array model" `Quick test_ivec_model;
        Alcotest.test_case "Arena = clause-record model" `Quick test_arena_model;
        Alcotest.test_case "steady-state BCP allocates zero words" `Quick
          test_burst_propagate_zero_alloc;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Search-path pins                                                    *)
(* ------------------------------------------------------------------ *)

(* Exact search counts of fixed instances.  A change to clause layout,
   watch-list order, the literal swaps within a clause or the decision
   heuristic moves them, so such a change fails here rather than only in
   a benchmark run.  A deliberate change of the search must re-record
   them. *)
let check_counts name (st : Sat.Types.stats) ~conflicts ~decisions ~propagations =
  check_int (name ^ " conflicts") conflicts st.Sat.Types.conflicts;
  check_int (name ^ " decisions") decisions st.Sat.Types.decisions;
  check_int (name ^ " propagations") propagations st.Sat.Types.propagations

let test_pin_php7_profiles () =
  let f = Problems.Generators.pigeonhole ~holes:7 in
  List.iter
    (fun (profile, conflicts, decisions, propagations) ->
      let out = Sat.Profiles.solve profile f in
      check (Sat.Profiles.name profile ^ " unsat") true (is_unsat out.Sat.Profiles.result);
      match out.Sat.Profiles.stats with
      | Some st ->
          check_counts ("php-7 " ^ Sat.Profiles.name profile) st ~conflicts ~decisions
            ~propagations
      | None -> Alcotest.fail "profile reported no stats")
    [
      (Sat.Profiles.Minisat, 4824, 5912, 68204);
      (Sat.Profiles.Lingeling, 4275, 4913, 43477);
      (Sat.Profiles.Cms5, 8854, 10527, 125360);
    ];
  check_int "every profile pinned" 3 (List.length Sat.Profiles.all)

let test_pin_random_ksat () =
  let f =
    Problems.Generators.random_ksat ~nvars:150 ~n_clauses:639 ~k:3
      ~rng:(Random.State.make [| 11 |])
  in
  let s = S.create ~nvars:(Cnf.Formula.nvars f) () in
  check "formula ok" true (S.add_formula s f);
  check "sat" true (is_sat (S.solve s));
  check_counts "ksat" (S.stats s) ~conflicts:1148 ~decisions:1388 ~propagations:36162

let test_pin_parity_gauss () =
  let f, xors =
    Problems.Generators.parity_chain_xors ~vertices:400 ~satisfiable:true
      ~rng:(Random.State.make [| 3 |])
  in
  let s = S.create ~nvars:(Cnf.Formula.nvars f) () in
  check "formula ok" true (S.add_formula s f);
  List.iter (fun (vars, parity) -> ignore (S.add_xor s ~vars ~parity)) xors;
  check "sat" true (is_sat (S.solve s));
  let st = S.stats s in
  check_counts "parity" st ~conflicts:106 ~decisions:591 ~propagations:2435;
  check_int "parity propagations" 406 st.Sat.Types.parity_propagations;
  check_int "parity conflicts" 98 st.Sat.Types.parity_conflicts

let pin_suite =
  [
    ( "sat.search_path",
      [
        Alcotest.test_case "php-7 under every profile" `Quick test_pin_php7_profiles;
        Alcotest.test_case "seeded random 3-SAT" `Quick test_pin_random_ksat;
        Alcotest.test_case "gauss-on parity chain" `Quick test_pin_parity_gauss;
      ] );
  ]

let suite =
  main_suite @ pin_suite @ probe_suite @ enumerate_suite @ proof_suite @ concurrency_suite
  @ arena_suite @ offheap_suite
