(* Tests for the generated CNF suite and the harness. *)

module F = Cnf.Formula
module G = Problems.Generators

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rng seed = Random.State.make [| seed |]

let solve f =
  (Sat.Profiles.solve Sat.Profiles.Minisat f).Sat.Profiles.result

let is_sat = function Sat.Types.Sat _ -> true | Sat.Types.Unsat | Sat.Types.Undecided -> false
let is_unsat = function Sat.Types.Unsat -> true | Sat.Types.Sat _ | Sat.Types.Undecided -> false

let test_random_ksat_shape () =
  let f = G.random_ksat ~nvars:20 ~n_clauses:50 ~k:3 ~rng:(rng 1) in
  check_int "clauses" 50 (F.n_clauses f);
  List.iter (fun c -> check_int "width 3" 3 (Cnf.Clause.length c)) (F.clauses f)

let test_random_ksat_underconstrained_sat () =
  (* well below the phase transition: almost surely satisfiable *)
  let f = G.random_ksat ~nvars:30 ~n_clauses:60 ~k:3 ~rng:(rng 2) in
  check "sat" true (is_sat (solve f))

let test_pigeonhole_unsat () =
  List.iter
    (fun holes -> check "php unsat" true (is_unsat (solve (G.pigeonhole ~holes))))
    [ 2; 3; 4 ]

let test_parity_chain_modes () =
  let fs = G.parity_chain ~vertices:14 ~satisfiable:true ~rng:(rng 3) in
  check "satisfiable mode" true (is_sat (solve fs));
  let fu = G.parity_chain ~vertices:14 ~satisfiable:false ~rng:(rng 3) in
  check "unsatisfiable mode" true (is_unsat (solve fu));
  (* total charge decides satisfiability regardless of the graph *)
  for seed = 10 to 14 do
    let f = G.parity_chain ~vertices:10 ~satisfiable:false ~rng:(rng seed) in
    check "unsat for all graphs" true (is_unsat (solve f))
  done

let test_parity_chain_disconnected_sat () =
  (* with 6 vertices and seed 3 the multigraph has two components; the
     satisfiable mode must make each component's charge even, not just
     the total (the generator used to return an UNSAT formula here) *)
  let f = G.parity_chain ~vertices:6 ~satisfiable:true ~rng:(Random.State.make [| 3 |]) in
  check "seed 3 sat by brute force" true (F.brute_force_sat f = Some true);
  for seed = 0 to 39 do
    List.iter
      (fun vertices ->
        let sat = G.parity_chain ~vertices ~satisfiable:true ~rng:(rng seed) in
        check "satisfiable mode sat" true (F.brute_force_sat sat = Some true);
        let unsat = G.parity_chain ~vertices ~satisfiable:false ~rng:(rng seed) in
        check "unsatisfiable mode unsat" true (F.brute_force_sat unsat = Some false))
      [ 4; 6; 8 ]
  done

let test_coloring_triangle () =
  (* a dense-enough random graph with 2 colours contains an odd cycle *)
  let f = G.coloring ~vertices:8 ~edges:16 ~colors:2 ~rng:(rng 4) in
  check "2-coloring dense graph unsat" true (is_unsat (solve f));
  let f3 = G.coloring ~vertices:8 ~edges:8 ~colors:4 ~rng:(rng 4) in
  check "4-coloring sparse graph sat" true (is_sat (solve f3))

let test_miter_faithful_unsat () =
  for seed = 0 to 4 do
    let f = G.miter ~inputs:6 ~gates:15 ~buggy:false ~rng:(rng seed) in
    check "faithful copy: no distinguishing input" true (is_unsat (solve f))
  done

let test_miter_buggy_mostly_sat () =
  (* a rewired gate usually changes the function; allow occasional
     coincidence but require a majority *)
  let sat_count = ref 0 in
  for seed = 0 to 9 do
    let f = G.miter ~inputs:6 ~gates:15 ~buggy:true ~rng:(rng (100 + seed)) in
    if is_sat (solve f) then incr sat_count
  done;
  check "majority distinguishable" true (!sat_count >= 5)

let test_par2_scoring () =
  let runs =
    [
      { Harness.Par2.solved = true; sat = Some true; time_s = 2.0 };
      { Harness.Par2.solved = true; sat = Some false; time_s = 3.0 };
      { Harness.Par2.solved = false; sat = None; time_s = 10.0 };
    ]
  in
  Alcotest.(check (float 1e-9)) "score" 25.0 (Harness.Par2.score ~timeout_s:10.0 runs);
  check "counts" true (Harness.Par2.solved_counts runs = (1, 1));
  check "cell mentions counts" true
    (String.length (Harness.Par2.cell ~timeout_s:10.0 runs) > 0)

let test_table_render () =
  let s =
    Harness.Table.render ~title:"T" ~headers:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check "contains header" true (String.length s > 0);
  (* all lines equal width alignment: header line includes both columns *)
  check "has rows" true (List.length (String.split_on_char '\n' s) >= 4)

let suite =
  [
    ( "problems",
      [
        Alcotest.test_case "random ksat shape" `Quick test_random_ksat_shape;
        Alcotest.test_case "underconstrained sat" `Quick test_random_ksat_underconstrained_sat;
        Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
        Alcotest.test_case "parity chain modes" `Quick test_parity_chain_modes;
        Alcotest.test_case "parity chain sat per component" `Quick
          test_parity_chain_disconnected_sat;
        Alcotest.test_case "coloring" `Quick test_coloring_triangle;
        Alcotest.test_case "miter faithful" `Quick test_miter_faithful_unsat;
        Alcotest.test_case "miter buggy" `Quick test_miter_buggy_mostly_sat;
      ] );
    ( "harness",
      [
        Alcotest.test_case "par2 scoring" `Quick test_par2_scoring;
        Alcotest.test_case "table rendering" `Quick test_table_render;
      ] );
  ]
