(* Tests for the in-search parity engine (Sat.Parity), its solver wiring,
   the parity steps it logs and their certification by Audit.Certify, and
   the XOR-path regressions that rode along with it: Xor_module.recover
   canonicalization and degenerate extended-DIMACS x lines. *)

module L = Cnf.Lit
module S = Sat.Solver
module Pa = Sat.Parity
module A1 = Bigarray.Array1

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let clause lits = List.map L.of_dimacs lits

let is_sat = function
  | Sat.Types.Sat _ -> true
  | Sat.Types.Unsat | Sat.Types.Undecided -> false

let is_unsat = function
  | Sat.Types.Unsat -> true
  | Sat.Types.Sat _ | Sat.Types.Undecided -> false

(* ------------------------------------------------------------------ *)
(* Parity module unit tests                                            *)
(* ------------------------------------------------------------------ *)

(* all-unassigned assignment vector (code_unknown = 2) *)
let unknowns n =
  let a = A1.create Bigarray.Int Bigarray.c_layout (max 1 n) in
  A1.fill a 2;
  a

let test_parity_gauss_units () =
  (* x0+x1 = 1, x1 = 1 (as x1+x1+x1 is not expressible; use two rows whose
     sum is a singleton): x0+x1 = 1 and x0+x1+x2 = 0 combine to x2 = 1 *)
  let t = Pa.create ~cols:3 () in
  Pa.add_row t ~vars:[ 0; 1 ] ~parity:true;
  Pa.add_row t ~vars:[ 0; 1; 2 ] ~parity:false;
  let assigns = unknowns 3 in
  check "consistent" true (Pa.gauss t ~assigns);
  check_int "one implied unit" 1 (Pa.n_units t);
  (* packed literal 2*2+0 = 4: x2 = true *)
  check_int "x2 true" 4 (Pa.unit_lit t 0);
  check "no violations" true (Pa.invariant_violations t = [])

let test_parity_gauss_conflict () =
  (* odd cycle: x0+x1=1, x1+x2=1, x0+x2=1 sums to 0=1 *)
  let t = Pa.create ~cols:3 () in
  Pa.add_row t ~vars:[ 0; 1 ] ~parity:true;
  Pa.add_row t ~vars:[ 1; 2 ] ~parity:true;
  Pa.add_row t ~vars:[ 0; 2 ] ~parity:true;
  check "inconsistent" false (Pa.gauss t ~assigns:(unknowns 3))

let test_parity_gauss_substitutes_assignments () =
  (* x0+x1+x2 = 0 with x0 = 1 assigned at root: row reduces to x1+x2 = 1,
     still width 2, no unit; with x1 = 0 too it becomes the unit x2 = 1 *)
  let t = Pa.create ~cols:3 () in
  Pa.add_row t ~vars:[ 0; 1; 2 ] ~parity:false;
  let assigns = unknowns 3 in
  A1.set assigns 0 0 (* code_true *);
  check "consistent" true (Pa.gauss t ~assigns);
  check_int "no unit yet" 0 (Pa.n_units t);
  check_int "row still live" 1 (Pa.n_live t);
  A1.set assigns 1 1 (* code_false *);
  check "still consistent" true (Pa.gauss t ~assigns);
  check_int "unit now" 1 (Pa.n_units t);
  check_int "x2 true" 4 (Pa.unit_lit t 0)

let test_parity_scan_protocol () =
  (* x0+x1+x2 = 1; assign x0=false, scan; then x1=false, scan expects the
     unit x2 = true *)
  let t = Pa.create ~cols:3 () in
  Pa.add_row t ~vars:[ 0; 1; 2 ] ~parity:true;
  let assigns = unknowns 3 in
  check "gauss ok" true (Pa.gauss t ~assigns);
  A1.set assigns 0 1 (* x0 = false *);
  Pa.scan_begin t ~v:0;
  check_int "no event on first assign" Pa.ev_done (Pa.scan_step t ~assigns);
  A1.set assigns 1 1 (* x1 = false *);
  Pa.scan_begin t ~v:1;
  let ev = Pa.scan_step t ~assigns in
  check_int "unit event" Pa.ev_unit ev;
  check_int "implied var" 2 (Pa.implied_var t);
  check "implied value" true (Pa.implied_val t);
  check_int "then done" Pa.ev_done (Pa.scan_step t ~assigns);
  check "no violations" true (Pa.invariant_violations t = [])

let test_parity_copy_independent () =
  let t = Pa.create ~cols:4 () in
  Pa.add_row t ~vars:[ 0; 1 ] ~parity:true;
  let u = Pa.copy t in
  Pa.add_row u ~vars:[ 2; 3 ] ~parity:false;
  check_int "original unchanged" 1 (Pa.n_live t);
  check_int "copy extended" 2 (Pa.n_live u);
  check "row 0 is x0 + x1 = 1" true
    (Pa.row_next_col t 0 ~from:0 = 0
    && Pa.row_next_col t 0 ~from:1 = 1
    && Pa.row_next_col t 0 ~from:2 = -1
    && Pa.row_rhs t 0)

(* ------------------------------------------------------------------ *)
(* Solver-level engine behaviour                                       *)
(* ------------------------------------------------------------------ *)

let parity_instance ~vertices ~satisfiable ~seed =
  let rng = Random.State.make [| seed |] in
  Problems.Generators.parity_chain_xors ~vertices ~satisfiable ~rng

let test_solver_parity_stats () =
  (* an XOR-heavy instance exercised with native rows must actually use
     the engine: propagations and gauss rounds both positive *)
  let f, xors = parity_instance ~vertices:16 ~satisfiable:true ~seed:7 in
  let s = S.create ~nvars:(Cnf.Formula.nvars f) () in
  check "formula ok" true (S.add_formula s f);
  List.iter (fun (vars, parity) -> ignore (S.add_xor s ~vars ~parity)) xors;
  check "sat" true (is_sat (S.solve s));
  let st = S.stats s in
  check "gauss ran" true (st.Sat.Types.gauss_rounds > 0);
  check "engine alive" true
    (st.Sat.Types.parity_propagations > 0 || S.n_parity_rows s = 0)

let test_solver_unsat_chain_via_gauss () =
  (* the resolution-hard UNSAT family: all vertex equations sum to 0 = 1,
     which level-0 Gauss-Jordan finds without a single decision *)
  List.iter
    (fun seed ->
      let f, xors = parity_instance ~vertices:12 ~satisfiable:false ~seed in
      let s = S.create ~nvars:(Cnf.Formula.nvars f) () in
      check "formula ok" true (S.add_formula s f);
      ignore
        (List.for_all (fun (vars, parity) -> S.add_xor s ~vars ~parity) xors);
      check "unsat" true (is_unsat (S.solve s)))
    [ 1; 2; 3 ]

let test_solver_restart_unwinding () =
  (* tiny restart interval forces many cancel_until-to-root transitions
     while parity rows are live; the engine must stay consistent *)
  let config = { S.default_config with restart_first = 2 } in
  List.iter
    (fun satisfiable ->
      let f, xors = parity_instance ~vertices:14 ~satisfiable ~seed:11 in
      let s = S.create ~config ~nvars:(Cnf.Formula.nvars f) () in
      check "formula ok" true (S.add_formula s f);
      ignore
        (List.for_all (fun (vars, parity) -> S.add_xor s ~vars ~parity) xors);
      let r = S.solve s in
      check "decided" true (is_sat r || is_unsat r);
      check "verdict" satisfiable (is_sat r);
      check "no violations" true
        (match S.invariant_violations s with
        | [] -> true
        | l ->
            List.iter print_endline l;
            false))
    [ true; false ]

let test_solver_clone_carries_rows () =
  let s = S.create ~nvars:4 () in
  ignore (S.add_xor s ~vars:[ 0; 1; 2; 3 ] ~parity:true);
  let c = S.clone s in
  check_int "clone rows" (S.n_parity_rows s) (S.n_parity_rows c);
  check "clone solves" true (is_sat (S.solve c));
  check "original solves" true (is_sat (S.solve s))

(* ------------------------------------------------------------------ *)
(* Differential: gauss-on vs gauss-off vs brute force                  *)
(* ------------------------------------------------------------------ *)

let prop_gauss_on_off_oracle =
  (* seeded XOR-rich systems: clauses + native rows (gauss on), the same
     clauses alone (gauss off) and brute force must agree *)
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 3 9 in
      let* n_clauses = int_range 0 6 in
      let* clauses =
        list_repeat n_clauses
          (let* len = int_range 1 3 in
           list_repeat len
             (let* v = int_bound (nvars - 1) in
              let* s = bool in
              return (if s then v + 1 else -(v + 1))))
      in
      let* n_xors = int_range 2 8 in
      let* xors =
        list_repeat n_xors
          (let* len = int_range 2 4 in
           let* vars = list_repeat len (int_bound (nvars - 1)) in
           let* parity = bool in
           return (vars, parity))
      in
      return (nvars, clauses, xors))
  in
  QCheck.Test.make ~name:"gauss-on/gauss-off/brute-force agree" ~count:200
    (QCheck.make
       ~print:(fun (n, cls, xors) ->
         Printf.sprintf "nvars=%d cls=%s xors=%s" n
           (String.concat ";"
              (List.map
                 (fun c -> String.concat "," (List.map string_of_int c))
                 cls))
           (String.concat ";"
              (List.map
                 (fun (vs, p) ->
                   String.concat "+" (List.map string_of_int vs)
                   ^ "=" ^ string_of_bool p)
                 xors)))
       gen)
    (fun (nvars, cls, xors) ->
      let xor_clauses =
        List.concat_map
          (fun (vars, parity) ->
            Sat.Xor_module.clauses_of_xor (Sat.Xor_module.make_xor ~vars ~parity))
          xors
      in
      let base = List.map (fun c -> Cnf.Clause.of_list (clause c)) cls in
      let f = Cnf.Formula.create ~nvars (base @ xor_clauses) in
      let expected = Cnf.Formula.brute_force_sat f = Some true in
      (* gauss off: the clause encoding alone *)
      let off = S.create ~nvars () in
      let off_ok = S.add_formula off f in
      let off_verdict = if not off_ok then false else is_sat (S.solve off) in
      (* gauss on: clauses plus native rows *)
      let on = S.create ~nvars () in
      let on_ok =
        S.add_formula on f
        && List.for_all (fun (vars, parity) -> S.add_xor on ~vars ~parity) xors
      in
      let on_verdict =
        if not on_ok then false
        else
          match S.solve on with
          | Sat.Types.Sat model ->
              (* the model must satisfy the full clause encoding too *)
              Cnf.Formula.eval (fun v -> model.(v)) f
          | Sat.Types.Unsat -> false
          | Sat.Types.Undecided -> not expected (* force a failure report *)
      in
      expected = off_verdict && expected = on_verdict)

(* ------------------------------------------------------------------ *)
(* Parity steps in the proof log and their certification              *)
(* ------------------------------------------------------------------ *)

(* Every parity step must be a logical consequence of clauses + XOR
   encodings.  Fast path: single-step RUP over the clause list (holds for
   reasons from original, uncombined rows).  Gauss-combined rows can
   escape single-step RUP (Laitinen), so fall back to a refutation solve:
   clauses + negated step must be UNSAT. *)
let certified ~nvars ~clauses c =
  Sat.Proof.is_rup ~clauses c
  ||
  let s = S.create ~nvars () in
  let consistent =
    List.for_all (fun c -> S.add_clause s c) clauses
    && List.for_all (fun l -> S.add_clause s [ L.neg l ]) c
  in
  (not consistent) || is_unsat (S.solve s)

let parity_steps s =
  List.filter_map
    (function Sat.Proof.Parity c -> Some c | Sat.Proof.Rup _ -> None)
    (S.proof s)

let test_reason_clauses_certified () =
  let total = ref 0 in
  List.iter
    (fun (satisfiable, seed) ->
      let f, xors = parity_instance ~vertices:12 ~satisfiable ~seed in
      let nvars = Cnf.Formula.nvars f in
      let s = S.create ~nvars () in
      S.enable_proof s;
      check "formula ok" true (S.add_formula s f);
      ignore
        (List.for_all (fun (vars, parity) -> S.add_xor s ~vars ~parity) xors);
      ignore (S.solve s);
      let clauses = List.map Cnf.Clause.to_list (Cnf.Formula.clauses f) in
      let steps = parity_steps s in
      total := !total + List.length steps;
      List.iter
        (fun c -> check "parity step certified" true (certified ~nvars ~clauses c))
        steps)
    [ (true, 3); (false, 4); (true, 5) ];
  (* an UNSAT instance may die at level 0, but across the batch the
     engine must have derived reasons *)
  check "parity steps logged across batch" true (!total > 0)

let status_kind (o : Bosphorus.Driver.outcome) =
  match o.Bosphorus.Driver.status with
  | Bosphorus.Driver.Solved_sat _ -> `Sat
  | Bosphorus.Driver.Solved_unsat -> `Unsat
  | Bosphorus.Driver.Processed | Bosphorus.Driver.Degraded -> `Open

let prop_gauss_audit_certifies =
  QCheck.Test.make ~name:"gauss-on audited run_cnf certifies, agrees with gauss off"
    ~count:12
    QCheck.(quad (int_range 4 8) bool bool (int_bound 10_000))
    (fun (half, satisfiable, incremental_sat, seed) ->
      let f =
        Problems.Generators.parity_chain ~vertices:(2 * half) ~satisfiable
          ~rng:(Random.State.make [| seed |])
      in
      let run gauss audit_trail =
        Bosphorus.Driver.run_cnf
          ~config:
            { Bosphorus.Config.default with Bosphorus.Config.gauss; audit_trail; incremental_sat }
          f
      in
      let audited = run Bosphorus.Config.Gauss_on true in
      let off = run Bosphorus.Config.Gauss_off false in
      (* the oracle is the gauss-off run, which must decide *)
      Audit.Certify.all_certified (Audit.Certify.certify audited)
      && status_kind audited = status_kind off
      && status_kind off <> `Open)

(* A hand-made trail over x0+x1 = 1 and x0+x1+x4 = 0 (as clauses) plus
   (~x2 | x3).  The genuine parity step x4 (the sum of the two rows) must
   certify its fact; the forged step x2 — whose row lies outside the span,
   backed by a recorded row x2 = 1 that the formula does not imply — must
   not, and neither may x3, which is RUP only given x2. *)
let test_forged_parity_step_rejected () =
  let xor vars parity =
    Sat.Xor_module.clauses_of_xor (Sat.Xor_module.make_xor ~vars ~parity)
  in
  let formula =
    Cnf.Formula.create ~nvars:5
      (xor [ 0; 1 ] true @ xor [ 0; 1; 4 ] false
      @ [ Cnf.Clause.of_list [ L.neg_of 2; L.pos 3 ] ])
  in
  let trail =
    (* a degree-5 input mentions every variable but implies none of the
       facts at low degree, so only the stage log can certify them *)
    Bosphorus.Audit_trail.create ~input:[ Anf.Anf_io.poly_of_string "x0*x1*x2*x3*x4" ]
  in
  Bosphorus.Audit_trail.record_sat_stage trail
    {
      Bosphorus.Audit_trail.formula;
      xors = [ ([ 0; 1 ], true); ([ 0; 1; 4 ], false); ([ 2 ], true) ];
      proof =
        [
          Sat.Proof.Parity [ L.pos 4 ];
          Sat.Proof.Parity [ L.pos 2 ];
          Sat.Proof.Rup [ L.pos 3 ];
        ];
    };
  let facts = Bosphorus.Facts.create () in
  let unit x = Anf.Poly.add (Anf.Poly.var x) Anf.Poly.one in
  List.iter
    (fun x -> ignore (Bosphorus.Facts.add facts Bosphorus.Facts.Sat_solver (unit x)))
    [ 4; 2; 3 ];
  let outcome =
    {
      Bosphorus.Driver.status = Bosphorus.Driver.Processed;
      anf = [];
      cnf = formula;
      facts;
      iterations = 1;
      sat_calls = 1;
      sat_rounds = [];
      trail = Some trail;
      budget_report = None;
    }
  in
  let r = Audit.Certify.certify outcome in
  let certified_fact x =
    List.exists
      (fun fr ->
        Anf.Poly.equal fr.Audit.Certify.fact (unit x)
        && match fr.Audit.Certify.verdict with Audit.Certify.Certified _ -> true | _ -> false)
      r.Audit.Certify.facts
  in
  check "genuine parity step certifies its fact" true (certified_fact 4);
  check "forged parity step does not" false (certified_fact 2);
  check "dependent fact does not" false (certified_fact 3);
  check_int "nothing refuted, two unknown" 2 r.Audit.Certify.n_unknown

(* ------------------------------------------------------------------ *)
(* Satellite regressions                                               *)
(* ------------------------------------------------------------------ *)

let test_recover_skips_tautologies () =
  (* a tautologous clause must not contribute to (or crash) recovery *)
  let xor_cls =
    Sat.Xor_module.clauses_of_xor
      (Sat.Xor_module.make_xor ~vars:[ 0; 1 ] ~parity:true)
  in
  let taut = Cnf.Clause.of_list (clause [ 1; -1; 2 ]) in
  let f = Cnf.Formula.create ~nvars:3 (taut :: xor_cls) in
  let recovered = Sat.Xor_module.recover f in
  check_int "one xor" 1 (List.length recovered);
  let x = List.hd recovered in
  check "vars" true (x.Sat.Xor_module.vars = [ 0; 1 ]);
  check "parity" true x.Sat.Xor_module.parity

let test_recover_canonicalizes_duplicates () =
  (* duplicate literals collapse before the arity check: [1;1;2] is the
     binary clause (x0|x1), and together with its three mates it is the
     xor x0+x1 = 1 *)
  let cls =
    [ [ 1; 1; 2 ]; [ -1; -2; -2 ] ]
    |> List.map (fun c -> Cnf.Clause.of_list (clause c))
  in
  let f = Cnf.Formula.create ~nvars:2 cls in
  let recovered = Sat.Xor_module.recover f in
  check_int "one xor" 1 (List.length recovered);
  check "parity odd" true (List.hd recovered).Sat.Xor_module.parity

let test_dimacs_degenerate_x_lines () =
  (* x1 -1 0: x0 + ~x0 = 1 is a tautology -> dropped *)
  let f, xors = Cnf.Dimacs.parse_string_extended "p cnf 2 0\nx1 -1 0\n" in
  check_int "no xor" 0 (List.length xors);
  check "sat" true (Cnf.Formula.brute_force_sat f = Some true);
  (* x1 1 0: x0 + x0 = 1 folds to 0 = 1 -> immediate UNSAT *)
  let f, xors = Cnf.Dimacs.parse_string_extended "p cnf 2 0\nx1 1 0\n" in
  check_int "no xor either" 0 (List.length xors);
  check "unsat" true (Cnf.Formula.brute_force_sat f = Some false);
  (* duplicate pair cancels inside a longer row: x1 -1 2 0 is x1 = 0 *)
  let _, xors = Cnf.Dimacs.parse_string_extended "p cnf 2 0\nx1 -1 2 0\n" in
  check "residual unit row" true (xors = [ ([ 1 ], false) ])

let test_dimacs_degenerate_roundtrip () =
  (* the writer canonicalizes the same way the parser does *)
  let f = Cnf.Formula.create ~nvars:2 [] in
  let s = Cnf.Dimacs.write_string_extended f [ ([ 0; 0 ], true) ] in
  let f', xors = Cnf.Dimacs.parse_string_extended s in
  check_int "no xors" 0 (List.length xors);
  check "unsat preserved" true (Cnf.Formula.brute_force_sat f' = Some false);
  let s = Cnf.Dimacs.write_string_extended f [ ([ 1; 1 ], false) ] in
  let f', xors = Cnf.Dimacs.parse_string_extended s in
  check "even-empty dropped" true (xors = [] && Cnf.Formula.brute_force_sat f' = Some true)

let test_driver_gauss_cnf_paths () =
  (* run_cnf with gauss forced on and forced off, and with gauss on in
     fresh mode (every round feeds the rows of a new conversion), must
     reach the same certified verdicts on XOR-heavy instances *)
  List.iter
    (fun satisfiable ->
      let f, _ = parity_instance ~vertices:10 ~satisfiable ~seed:21 in
      let statuses =
        List.map
          (fun (gauss, incremental_sat) ->
            let config =
              { Bosphorus.Config.default with Bosphorus.Config.gauss; incremental_sat }
            in
            let o = Bosphorus.Driver.run_cnf ~config f in
            match o.Bosphorus.Driver.status with
            | Bosphorus.Driver.Solved_sat _ -> `Sat
            | Bosphorus.Driver.Solved_unsat -> `Unsat
            | Bosphorus.Driver.Processed | Bosphorus.Driver.Degraded -> `Open)
          [
            (Bosphorus.Config.Gauss_on, true);
            (Bosphorus.Config.Gauss_off, true);
            (Bosphorus.Config.Gauss_on, false);
          ]
      in
      let want = if satisfiable then `Sat else `Unsat in
      List.iter (fun st -> check "verdict" true (st = want)) statuses)
    [ true; false ]

let qcheck_cases =
  List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_gauss_on_off_oracle ]

let audit_cases =
  Alcotest.test_case "forged parity step rejected" `Quick test_forged_parity_step_rejected
  :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_gauss_audit_certifies ]

let suite =
  [
    ( "parity.engine",
      [
        Alcotest.test_case "gauss implied units" `Quick test_parity_gauss_units;
        Alcotest.test_case "gauss conflict" `Quick test_parity_gauss_conflict;
        Alcotest.test_case "gauss substitutes assignments" `Quick
          test_parity_gauss_substitutes_assignments;
        Alcotest.test_case "scan protocol" `Quick test_parity_scan_protocol;
        Alcotest.test_case "copy independence" `Quick test_parity_copy_independent;
      ] );
    ( "parity.solver",
      [
        Alcotest.test_case "stats populated" `Quick test_solver_parity_stats;
        Alcotest.test_case "unsat chains via gauss" `Quick
          test_solver_unsat_chain_via_gauss;
        Alcotest.test_case "restart unwinding" `Quick test_solver_restart_unwinding;
        Alcotest.test_case "clone carries rows" `Quick test_solver_clone_carries_rows;
        Alcotest.test_case "reason clauses certified" `Quick
          test_reason_clauses_certified;
      ] );
    ("parity.differential", qcheck_cases);
    ("parity.audit", audit_cases);
    ( "parity.regressions",
      [
        Alcotest.test_case "recover skips tautologies" `Quick
          test_recover_skips_tautologies;
        Alcotest.test_case "recover canonicalizes duplicates" `Quick
          test_recover_canonicalizes_duplicates;
        Alcotest.test_case "degenerate x lines" `Quick test_dimacs_degenerate_x_lines;
        Alcotest.test_case "degenerate x roundtrip" `Quick
          test_dimacs_degenerate_roundtrip;
        Alcotest.test_case "driver cnf paths agree" `Quick test_driver_gauss_cnf_paths;
      ] );
  ]
