(* Tests for CNF preprocessing (Simp), XOR recovery, and profiles. *)

module L = Cnf.Lit
module C = Cnf.Clause
module F = Cnf.Formula
module X = Sat.Xor_module

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let formula_of_dimacs ~nvars cls =
  F.create ~nvars (List.map (fun c -> C.of_list (List.map L.of_dimacs c)) cls)

(* ------------------------------------------------------------------ *)
(* Simp                                                                *)
(* ------------------------------------------------------------------ *)

let test_simp_unit_propagation () =
  (* x0; x0 -> x1; x1 -> x2: everything fixed, formula empties *)
  let f = formula_of_dimacs ~nvars:3 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ] ] in
  match Cnf.Simp.simplify f with
  | Cnf.Simp.Unsat -> Alcotest.fail "should be sat"
  | Cnf.Simp.Simplified s ->
      check_int "no clauses left" 0 (F.n_clauses s.formula);
      check_int "three fixed" 3 (List.length s.fixed);
      let m = s.reconstruct [||] in
      check "x0" true m.(0);
      check "x1" true m.(1);
      check "x2" true m.(2)

let test_simp_detects_unsat () =
  let f = formula_of_dimacs ~nvars:1 [ [ 1 ]; [ -1 ] ] in
  check "unsat" true (Cnf.Simp.simplify f = Cnf.Simp.Unsat)

let test_simp_subsumption () =
  (* (x0) subsumes (x0|x1): after fixing x0, everything drops anyway; use a
     non-unit example: (x0|x1) subsumes (x0|x1|x2) *)
  let f = formula_of_dimacs ~nvars:3 [ [ 1; 2 ]; [ 1; 2; 3 ] ] in
  match Cnf.Simp.simplify ~bve:false f with
  | Cnf.Simp.Unsat -> Alcotest.fail "sat expected"
  | Cnf.Simp.Simplified s ->
      (* pure literals will fire too; just check clause count shrank *)
      check "clauses reduced" true (F.n_clauses s.formula < 2)

let test_simp_bve_eliminates () =
  (* v=x1 appears in 2 clauses; elimination resolves them:
     (x0|x1) (~x1|x2) -> (x0|x2) *)
  let f = formula_of_dimacs ~nvars:3 [ [ 1; 2 ]; [ -2; 3 ] ] in
  match Cnf.Simp.simplify f with
  | Cnf.Simp.Unsat -> Alcotest.fail "sat expected"
  | Cnf.Simp.Simplified s ->
      (* pure literal elimination may empty it entirely; the key invariant
         is reconstruction below *)
      let model = s.reconstruct (Array.make 3 false) in
      check "reconstructed model satisfies original" true (F.eval (fun v -> model.(v)) f)

let test_simp_duplicate_clauses_regression () =
  (* regression: two identical clauses must not subsume each other away
     (a clause already deleted in a pass was still acting as a subsumer) *)
  let c = [ 1; 2 ] in
  let f = formula_of_dimacs ~nvars:2 [ c; c ] in
  match Cnf.Simp.simplify f with
  | Cnf.Simp.Unsat -> Alcotest.fail "satisfiable"
  | Cnf.Simp.Simplified s ->
      (* the constraint x0 | x1 must survive in some form: the all-false
         assignment cannot be a model after reconstruction *)
      let full = s.reconstruct (Array.make 2 false) in
      let candidate v = full.(v) in
      check "constraint preserved" true
        (F.eval candidate f || F.n_clauses s.formula > 0 || s.fixed <> [])

let test_simp_stale_fix_ordering_regression () =
  (* regression: a clause containing an already-fixed variable must not be
     saved by variable elimination (the reconstructor would then decide the
     eliminated variable before the fixed one).  Minimised from a fuzzer
     counterexample. *)
  let cls = [ [ -2 ]; [ -6; -5 ]; [ 3; 5 ]; [ 3; -5 ]; [ -1; 6 ]; [ 1; -3 ] ] in
  let f = formula_of_dimacs ~nvars:8 cls in
  match Cnf.Simp.simplify f with
  | Cnf.Simp.Unsat -> Alcotest.fail "satisfiable"
  | Cnf.Simp.Simplified s ->
      let n = F.nvars s.formula in
      for mask = 0 to (1 lsl n) - 1 do
        let a v = mask lsr v land 1 = 1 in
        if F.eval a s.formula then begin
          let full = s.reconstruct (Array.init n a) in
          check "reconstructed model satisfies original" true
            (F.eval (fun v -> full.(v)) f)
        end
      done

let prop_simp_preserves_satisfiability =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 1 8 in
      let* n_clauses = int_range 1 25 in
      let* clauses =
        list_repeat n_clauses
          (let* len = int_range 1 4 in
           list_repeat len
             (let* v = int_bound (nvars - 1) in
              let* s = bool in
              return (if s then v + 1 else -(v + 1))))
      in
      return (nvars, clauses))
  in
  QCheck.Test.make ~name:"simp: equisatisfiable + model reconstruction" ~count:400
    (QCheck.make
       ~print:(fun (n, cls) ->
         Printf.sprintf "nvars=%d %s" n
           (String.concat ";" (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls)))
       gen)
    (fun (nvars, cls) ->
      let f = formula_of_dimacs ~nvars cls in
      let sat_orig = F.brute_force_sat f = Some true in
      match Cnf.Simp.simplify f with
      | Cnf.Simp.Unsat -> not sat_orig
      | Cnf.Simp.Simplified s -> (
          match F.brute_force_sat s.formula with
          | Some sat_simplified ->
              sat_simplified = sat_orig
              &&
              if sat_simplified then begin
                (* find a model of the simplified formula, reconstruct, check *)
                let n = F.nvars s.formula in
                let found = ref None in
                (try
                   for mask = 0 to (1 lsl n) - 1 do
                     let a v = mask lsr v land 1 = 1 in
                     if F.eval a s.formula then begin
                       found := Some (Array.init (max n nvars) a);
                       raise Exit
                     end
                   done
                 with Exit -> ());
                match !found with
                | None -> false
                | Some model ->
                    let full = s.reconstruct model in
                    F.eval (fun v -> full.(v)) f
              end
              else true
          | None -> false))

(* ------------------------------------------------------------------ *)
(* XOR recovery and GJE                                                *)
(* ------------------------------------------------------------------ *)

let test_xor_clause_encoding_roundtrip () =
  (* encode x0+x1+x2 = 1 and recover it *)
  let x = X.make_xor ~vars:[ 0; 1; 2 ] ~parity:true in
  let clauses = X.clauses_of_xor x in
  check_int "2^(k-1) clauses" 4 (List.length clauses);
  let f = F.create ~nvars:3 clauses in
  (match X.recover f with
  | [ x' ] ->
      Alcotest.(check (list int)) "vars" [ 0; 1; 2 ] x'.X.vars;
      check "parity" true x'.X.parity
  | l -> Alcotest.failf "expected 1 xor, got %d" (List.length l));
  (* semantic check: the encoding has exactly the models of odd parity *)
  check_int "4 models" 4 (F.brute_force_count f)

let test_xor_even_parity () =
  let x = X.make_xor ~vars:[ 0; 1 ] ~parity:false in
  let f = F.create ~nvars:2 (X.clauses_of_xor x) in
  (* x0 = x1: models 00 and 11 *)
  check_int "2 models" 2 (F.brute_force_count f);
  match X.recover f with
  | [ x' ] -> check "parity even" false x'.X.parity
  | l -> Alcotest.failf "expected 1 xor, got %d" (List.length l)

let test_xor_incomplete_not_recovered () =
  let x = X.make_xor ~vars:[ 0; 1; 2 ] ~parity:true in
  match X.clauses_of_xor x with
  | _ :: rest ->
      let f = F.create ~nvars:3 rest in
      check_int "no xor from 3 of 4 clauses" 0 (List.length (X.recover f))
  | [] -> Alcotest.fail "expected clauses"

let test_xor_duplicates_cancel () =
  let x = X.make_xor ~vars:[ 3; 3; 5 ] ~parity:true in
  Alcotest.(check (list int)) "x3 cancels" [ 5 ] x.X.vars

(* The Cms5 profile recovers XOR rows from their clause encodings and
   hands them to the solver's parity engine, whose level-0 Gauss-Jordan
   pass settles these small systems. *)
let cms5_of_xors ~nvars xors =
  let f = F.create ~nvars (List.concat_map X.clauses_of_xor xors) in
  (f, Sat.Profiles.solve Sat.Profiles.Cms5 f)

let test_gauss_chain () =
  (* x0+x1=1, x1+x2=0, x2=1  =>  x0=0, x1=1, x2=1 *)
  let xors =
    [
      X.make_xor ~vars:[ 0; 1 ] ~parity:true;
      X.make_xor ~vars:[ 1; 2 ] ~parity:false;
      X.make_xor ~vars:[ 2 ] ~parity:true;
    ]
  in
  match cms5_of_xors ~nvars:3 xors with
  | f, { Sat.Profiles.result = Sat.Types.Sat model; _ } ->
      check "model satisfies the formula" true (F.eval (fun v -> model.(v)) f);
      check "x0=0" false model.(0);
      check "x1=1" true model.(1);
      check "x2=1" true model.(2)
  | _ -> Alcotest.fail "consistent system"

let test_gauss_inconsistent () =
  let xors =
    [
      X.make_xor ~vars:[ 0; 1 ] ~parity:true;
      X.make_xor ~vars:[ 0; 1 ] ~parity:false;
    ]
  in
  match cms5_of_xors ~nvars:2 xors with
  | _, { Sat.Profiles.result = Sat.Types.Unsat; stats = Some st } ->
      check_int "refuted without search" 0 st.Sat.Types.conflicts
  | _ -> Alcotest.fail "inconsistent system"

let test_gauss_redundant () =
  let xors =
    [ X.make_xor ~vars:[ 0; 1 ] ~parity:true; X.make_xor ~vars:[ 0; 1 ] ~parity:true ]
  in
  match cms5_of_xors ~nvars:2 xors with
  | _, { Sat.Profiles.result = Sat.Types.Sat _; _ } -> ()
  | _ -> Alcotest.fail "consistent"

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)
(* ------------------------------------------------------------------ *)

let profile_testable = Alcotest.testable (fun ppf p -> Format.pp_print_string ppf (Sat.Profiles.name p)) ( = )

let test_profile_names () =
  List.iter
    (fun p ->
      Alcotest.(check (option profile_testable))
        "roundtrip" (Some p)
        (Sat.Profiles.of_name (Sat.Profiles.name p)))
    Sat.Profiles.all

let xor_chain_formula n =
  (* x0+x1=1, x1+x2=1, ..., x_{n-1}+x_n=1 , plus x0=0 *)
  let xors =
    List.init n (fun i -> X.make_xor ~vars:[ i; i + 1 ] ~parity:true)
  in
  let clauses = List.concat_map X.clauses_of_xor xors in
  F.create ~nvars:(n + 1) (C.of_list [ L.neg_of 0 ] :: clauses)

let test_profiles_agree_on_sat () =
  let f = xor_chain_formula 10 in
  List.iter
    (fun p ->
      match (Sat.Profiles.solve p f).Sat.Profiles.result with
      | Sat.Types.Sat model ->
          check (Sat.Profiles.name p ^ " model valid") true (F.eval (fun v -> model.(v)) f)
      | Sat.Types.Unsat | Sat.Types.Undecided ->
          Alcotest.failf "%s: expected SAT" (Sat.Profiles.name p))
    Sat.Profiles.all

let test_profiles_agree_on_unsat () =
  (* xor chain forcing x0=0 and x0=1: x0+x1=1, x1=1 (=> x0=0) plus unit x0 *)
  let xors =
    [ X.make_xor ~vars:[ 0; 1 ] ~parity:true; X.make_xor ~vars:[ 1 ] ~parity:true ]
  in
  let f =
    F.create ~nvars:2 (C.of_list [ L.pos 0 ] :: List.concat_map X.clauses_of_xor xors)
  in
  List.iter
    (fun p ->
      match (Sat.Profiles.solve p f).Sat.Profiles.result with
      | Sat.Types.Unsat -> ()
      | Sat.Types.Sat _ | Sat.Types.Undecided ->
          Alcotest.failf "%s: expected UNSAT" (Sat.Profiles.name p))
    Sat.Profiles.all

let prop_profiles_match_brute_force =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 1 8 in
      let* n_clauses = int_range 1 30 in
      let* clauses =
        list_repeat n_clauses
          (let* len = int_range 1 3 in
           list_repeat len
             (let* v = int_bound (nvars - 1) in
              let* s = bool in
              return (if s then v + 1 else -(v + 1))))
      in
      return (nvars, clauses))
  in
  QCheck.Test.make ~name:"profiles agree with brute force" ~count:150
    (QCheck.make
       ~print:(fun (n, cls) ->
         Printf.sprintf "nvars=%d %s" n
           (String.concat ";" (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls)))
       gen)
    (fun (nvars, cls) ->
      let f = formula_of_dimacs ~nvars cls in
      let expected = F.brute_force_sat f = Some true in
      List.for_all
        (fun p ->
          match (Sat.Profiles.solve p f).Sat.Profiles.result with
          | Sat.Types.Sat model -> expected && F.eval (fun v -> model.(v)) f
          | Sat.Types.Unsat -> not expected
          | Sat.Types.Undecided -> false)
        Sat.Profiles.all)

let prop_gauss_matches_brute_force =
  (* the Cms5 verdict on a random XOR system's clause encoding agrees
     with brute force *)
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 2 8 in
      let* n = int_range 1 10 in
      let* xors =
        list_repeat n
          (let* len = int_range 1 4 in
           let* vars = list_repeat len (int_bound (nvars - 1)) in
           let* parity = bool in
           return (vars, parity))
      in
      return (nvars, xors))
  in
  QCheck.Test.make ~name:"gauss verdict matches brute force" ~count:200
    (QCheck.make
       ~print:(fun (n, xors) ->
         Printf.sprintf "nvars=%d %s" n
           (String.concat ";"
              (List.map
                 (fun (vs, p) ->
                   String.concat "+" (List.map string_of_int vs) ^ "=" ^ string_of_bool p)
                 xors)))
       gen)
    (fun (nvars, xors) ->
      let xors =
        List.filter_map
          (fun (vars, parity) ->
            let x = X.make_xor ~vars ~parity in
            (* empty-variable rows: parity true is an immediate
               contradiction, parity false is trivial *)
            if x.X.vars = [] && not x.X.parity then None else Some x)
          xors
      in
      let f, out = cms5_of_xors ~nvars xors in
      let expected = F.brute_force_sat f = Some true in
      match out.Sat.Profiles.result with
      | Sat.Types.Sat model -> expected && F.eval (fun v -> model.(v)) f
      | Sat.Types.Unsat -> not expected
      | Sat.Types.Undecided -> false)

let prop_cnf_to_anf_cut_bound =
  (* every polynomial emitted by the CNF-to-ANF conversion respects the
     2^(L') term bound implied by clause cutting *)
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 3 10 in
      let* len = int_range 1 8 in
      let* lits =
        list_repeat len
          (let* v = int_bound (nvars - 1) in
           let* s = bool in
           return (Cnf.Lit.make v ~negated:s))
      in
      let* limit = int_range 2 4 in
      return (nvars, lits, limit))
  in
  QCheck.Test.make ~name:"clause cutting bounds polynomial size" ~count:200
    (QCheck.make
       ~print:(fun (n, lits, limit) ->
         Format.asprintf "nvars=%d limit=%d %a" n limit Cnf.Clause.pp (Cnf.Clause.of_list lits))
       gen)
    (fun (nvars, lits, limit) ->
      let f = F.create ~nvars [ Cnf.Clause.of_list lits ] in
      let config =
        { Bosphorus.Config.default with Bosphorus.Config.clause_cut_positive = limit }
      in
      let conv = Bosphorus.Cnf_to_anf.convert ~config f in
      List.for_all
        (fun p -> Anf.Poly.n_terms p <= 1 lsl (limit + 1))
        conv.Bosphorus.Cnf_to_anf.polys)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_simp_preserves_satisfiability;
      prop_profiles_match_brute_force;
      prop_gauss_matches_brute_force;
      prop_cnf_to_anf_cut_bound;
    ]

let suite =
  [
    ( "cnf.simp",
      [
        Alcotest.test_case "unit propagation" `Quick test_simp_unit_propagation;
        Alcotest.test_case "detects unsat" `Quick test_simp_detects_unsat;
        Alcotest.test_case "subsumption" `Quick test_simp_subsumption;
        Alcotest.test_case "bve + reconstruction" `Quick test_simp_bve_eliminates;
        Alcotest.test_case "duplicate clauses regression" `Quick test_simp_duplicate_clauses_regression;
        Alcotest.test_case "stale fix ordering regression" `Quick test_simp_stale_fix_ordering_regression;
      ] );
    ( "sat.xor",
      [
        Alcotest.test_case "encode/recover roundtrip" `Quick test_xor_clause_encoding_roundtrip;
        Alcotest.test_case "even parity" `Quick test_xor_even_parity;
        Alcotest.test_case "incomplete family ignored" `Quick test_xor_incomplete_not_recovered;
        Alcotest.test_case "duplicate vars cancel" `Quick test_xor_duplicates_cancel;
        Alcotest.test_case "gauss chain" `Quick test_gauss_chain;
        Alcotest.test_case "gauss inconsistent" `Quick test_gauss_inconsistent;
        Alcotest.test_case "gauss redundant" `Quick test_gauss_redundant;
      ] );
    ( "sat.profiles",
      [
        Alcotest.test_case "names roundtrip" `Quick test_profile_names;
        Alcotest.test_case "all sat on xor chain" `Quick test_profiles_agree_on_sat;
        Alcotest.test_case "all unsat" `Quick test_profiles_agree_on_unsat;
      ] );
    ("preprocess.properties", qcheck_cases);
  ]
