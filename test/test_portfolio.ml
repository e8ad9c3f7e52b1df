(* Tests for the racing SAT portfolio and its lock-free clause exchange.

   The load-bearing properties, in test order: the exchange delivers
   exactly what was published (including across buffer growth and across
   domains); a sharing-off single-seat race is bit-identical to a lone
   solve; a race returns the same status as the solvers it contains; at
   most one seat wins and losers can only return Undecided through
   cancellation; and every clause that crossed the exchange is certified —
   by RUP replay over the formula plus previously verified exchanged
   clauses where possible, and by independent solver re-derivation
   (formula plus the clause's negation refuted from scratch) always. *)

module L = Cnf.Lit
module S = Sat.Solver
module Pf = Sat.Portfolio
module Ex = Sat.Portfolio.Exchange

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let clause lits = List.map L.of_dimacs lits

let formula_of ~nvars cls =
  Cnf.Formula.create ~nvars (List.map (fun c -> Cnf.Clause.of_list (clause c)) cls)

let solver_of ~nvars cls =
  let s = S.create ~nvars () in
  List.iter (fun c -> ignore (S.add_clause s (clause c))) cls;
  s

let is_sat = function Sat.Types.Sat _ -> true | _ -> false
let is_unsat = function Sat.Types.Unsat -> true | _ -> false
let is_undecided = function Sat.Types.Undecided -> true | _ -> false

let pigeonhole ~holes =
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

(* ------------------------------------------------------------------ *)
(* Exchange                                                            *)
(* ------------------------------------------------------------------ *)

let test_exchange_basic () =
  let ex = Ex.create ~workers:3 in
  Ex.publish ex ~worker:0 ~n:1 ~a:4 ~b:0 ~c:0;
  Ex.publish ex ~worker:1 ~n:2 ~a:2 ~b:5 ~c:0;
  Ex.publish ex ~worker:0 ~n:3 ~a:1 ~b:3 ~c:7;
  check_int "three records" 3 (Ex.n_records ex);
  let cur = Ex.cursor ex in
  check "reader 2 has pending" true (Ex.pending ex cur ~self:2);
  let seen = ref [] in
  let got =
    Ex.drain ex cur ~self:2 (fun ~n ~a ~b ~c -> seen := (n, a, b, c) :: !seen)
  in
  check_int "drained all three" 3 got;
  check "lane order, publication order" true
    (List.rev !seen = [ (1, 4, 0, 0); (3, 1, 3, 7); (2, 2, 5, 0) ]);
  check "drained means no pending" false (Ex.pending ex cur ~self:2);
  check_int "second drain is empty" 0
    (Ex.drain ex cur ~self:2 (fun ~n:_ ~a:_ ~b:_ ~c:_ -> ()));
  (* a reader never sees its own lane *)
  let cur0 = Ex.cursor ex in
  let own = Ex.drain ex cur0 ~self:0 (fun ~n:_ ~a:_ ~b:_ ~c:_ -> ()) in
  check_int "reader 0 skips lane 0" 1 own;
  check "records snapshot" true
    (Ex.records ex = [ [| 4 |]; [| 1; 3; 7 |]; [| 2; 5 |] ])

let test_exchange_growth () =
  (* force several buffer doublings in one lane and check nothing tears *)
  let ex = Ex.create ~workers:2 in
  let n = 500 in
  for i = 0 to n - 1 do
    Ex.publish ex ~worker:0 ~n:2 ~a:i ~b:(i * 3) ~c:0
  done;
  let cur = Ex.cursor ex in
  let next = ref 0 in
  let got =
    Ex.drain ex cur ~self:1 (fun ~n:w ~a ~b ~c ->
        if w <> 2 || a <> !next || b <> !next * 3 || c <> 0 then
          Alcotest.failf "record %d corrupted: (%d,%d,%d,%d)" !next w a b c;
        incr next)
  in
  check_int "all records across growth" n got

let test_exchange_cross_domain () =
  (* one writer domain, one reader domain polling concurrently: the
     reader must only ever see fully published records, in order *)
  let ex = Ex.create ~workers:2 in
  let n = 20_000 in
  let writer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Ex.publish ex ~worker:0 ~n:2 ~a:i ~b:(i lxor 0x5555) ~c:0
        done)
  in
  let cur = Ex.cursor ex in
  let next = ref 0 in
  while !next < n do
    ignore
      (Ex.drain ex cur ~self:1 (fun ~n:w ~a ~b ~c ->
           if w <> 2 || a <> !next || b <> !next lxor 0x5555 || c <> 0 then
             Alcotest.failf "cross-domain record %d corrupted: (%d,%d,%d,%d)"
               !next w a b c;
           incr next))
  done;
  Domain.join writer;
  check_int "reader saw every record exactly once" n !next

(* ------------------------------------------------------------------ *)
(* Bit-identity with sharing off                                       *)
(* ------------------------------------------------------------------ *)

let test_single_seat_bit_identity () =
  (* a race of one pristine seat with sharing off must walk exactly the
     lone solver's trajectory: same result, same conflict/decision/
     propagation counts *)
  let cls = pigeonhole ~holes:5 in
  let nvars = 6 * 5 in
  let lone = solver_of ~nvars cls in
  let lone_result = S.solve lone in
  let raced = solver_of ~nvars cls in
  let o =
    Pf.race ~share:false
      ~workers:[ { Pf.name = "w0:minisat"; config = S.default_config; phase_seed = 0 } ]
      raced
  in
  check "same status" true (is_unsat lone_result && is_unsat o.Pf.result);
  let a = S.stats lone and b = S.stats raced in
  check_int "same conflicts" a.Sat.Types.conflicts b.Sat.Types.conflicts;
  check_int "same decisions" a.Sat.Types.decisions b.Sat.Types.decisions;
  check_int "same propagations" a.Sat.Types.propagations b.Sat.Types.propagations;
  check_int "same restarts" a.Sat.Types.restarts b.Sat.Types.restarts;
  check_int "nothing imported" 0 b.Sat.Types.imported_clauses;
  check_int "nothing exported" 0 b.Sat.Types.exported_clauses;
  check_int "exchange stayed empty" 0 (List.length o.Pf.exchanged)

let test_clone_bit_identity () =
  (* a clone with the same config solves bit-identically to its source *)
  let cls = pigeonhole ~holes:4 in
  let nvars = 5 * 4 in
  let s = solver_of ~nvars cls in
  let c = S.clone s in
  let r1 = S.solve s and r2 = S.solve c in
  check "both unsat" true (is_unsat r1 && is_unsat r2);
  let a = S.stats s and b = S.stats c in
  check_int "same conflicts" a.Sat.Types.conflicts b.Sat.Types.conflicts;
  check_int "same decisions" a.Sat.Types.decisions b.Sat.Types.decisions

(* ------------------------------------------------------------------ *)
(* Race semantics                                                      *)
(* ------------------------------------------------------------------ *)

let count_winners o =
  List.length (List.filter (fun r -> r.Pf.rwinner) o.Pf.reports)

let test_race_decides_sat () =
  let n = 30 in
  let cls = [ 1 ] :: List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]) in
  let o = Pf.solve ~k:4 (formula_of ~nvars:n cls) in
  check "sat" true (is_sat o.Pf.result);
  check_int "four reports" 4 (List.length o.Pf.reports);
  check "a worker won" true (o.Pf.winner >= 0);
  check_int "exactly one winner" 1 (count_winners o);
  (match o.Pf.result with
  | Sat.Types.Sat model ->
      check "model satisfies the formula" true
        (Cnf.Formula.eval
           (fun v -> v < Array.length model && model.(v))
           (formula_of ~nvars:n cls))
  | _ -> Alcotest.fail "expected a model");
  (* the winning solver is the surviving state *)
  check "winner's solver answers" true (S.okay o.Pf.solver)

let test_race_decides_unsat_and_cancels () =
  let holes = 6 in
  let o =
    Pf.solve ~k:3 (formula_of ~nvars:((holes + 1) * holes) (pigeonhole ~holes))
  in
  check "unsat" true (is_unsat o.Pf.result);
  check_int "exactly one winner" 1 (count_winners o);
  (* With no budgets and no caller interrupt, Undecided has exactly one
     source: the winner's cancellation token.  Every loser either decided
     the same way or was cancelled. *)
  List.iter
    (fun r ->
      check
        (Printf.sprintf "%s: loser cancelled or agrees" r.Pf.rname)
        true
        (r.Pf.rwinner || is_unsat r.Pf.rresult || is_undecided r.Pf.rresult))
    o.Pf.reports;
  check "winner's report matches the outcome" true
    (is_unsat (List.nth o.Pf.reports o.Pf.winner).Pf.rresult)

let test_race_respects_conflict_budget () =
  let holes = 7 in
  let f = formula_of ~nvars:((holes + 1) * holes) (pigeonhole ~holes) in
  let o = Pf.solve ~conflict_budget:10 ~k:3 f in
  check "undecided under a tiny budget" true (is_undecided o.Pf.result);
  check_int "no winner" (-1) o.Pf.winner;
  check_int "no report claims the win" 0 (count_winners o)

let test_race_caller_interrupt () =
  let holes = 7 in
  let f = formula_of ~nvars:((holes + 1) * holes) (pigeonhole ~holes) in
  let o = Pf.race ~interrupt:(fun () -> true) ~workers:(Pf.default_workers ~k:2)
      (solver_of ~nvars:((holes + 1) * holes) (pigeonhole ~holes))
  in
  ignore f;
  check "interrupted race is undecided" true (is_undecided o.Pf.result)

let test_default_workers_shape () =
  let ws = Pf.default_workers ~k:7 in
  check_int "k workers" 7 (List.length ws);
  let w0 = List.hd ws in
  check "worker 0 pristine" true (w0.Pf.phase_seed = 0);
  check "worker 0 default config" true (w0.Pf.config = S.default_config);
  let names = List.map (fun w -> w.Pf.name) ws in
  check "names distinct" true
    (List.length (List.sort_uniq compare names) = 7);
  List.iteri
    (fun i w -> if i > 0 then check (w.Pf.name ^ " jittered") true (w.Pf.phase_seed <> 0))
    ws;
  (* deterministic: same k, same workers *)
  check "deterministic" true (Pf.default_workers ~k:7 = ws)

(* ------------------------------------------------------------------ *)
(* Differential sweep with certification of every exchanged clause     *)
(* ------------------------------------------------------------------ *)

let random_cnf rng =
  let nvars = 8 + Random.State.int rng 5 in
  let n_clauses = 4 * nvars + Random.State.int rng nvars in
  let cls =
    List.init n_clauses (fun _ ->
        let rec pick acc k =
          if k = 0 then acc
          else
            let v = 1 + Random.State.int rng nvars in
            if List.mem v acc then pick acc k else pick (v :: acc) (k - 1)
        in
        List.map
          (fun v -> if Random.State.bool rng then v else -v)
          (pick [] 3))
  in
  (nvars, cls)

(* Complete certification of one exchanged clause: RUP against the
   formula plus previously verified exchanged clauses when that single
   propagation pass suffices, else independent re-derivation — a fresh
   pristine solver must refute formula + (negation of every literal). *)
let certify_exchanged ~nvars ~formula_clauses exchanged =
  let verified = ref [] in
  List.iter
    (fun packed ->
      let lits = Array.to_list (Array.map L.of_index packed) in
      let rup = Sat.Proof.is_rup ~clauses:(formula_clauses @ !verified) lits in
      let ok =
        rup
        ||
        let s = S.create ~nvars () in
        List.iter (fun c -> ignore (S.add_clause s c)) formula_clauses;
        let negation_consistent =
          List.for_all (fun l -> S.add_clause s [ L.neg l ]) lits
        in
        (not negation_consistent) || is_unsat (S.solve s)
      in
      if not ok then
        Alcotest.failf "exchanged clause not re-derivable: %s"
          (String.concat " "
             (List.map (fun l -> string_of_int (L.to_dimacs l)) lits));
      verified := lits :: !verified)
    exchanged

let test_differential_with_sharing () =
  let rng = Random.State.make [| 0x0b05f0 |] in
  let n_formulas = 30 in
  let n_exchanged = ref 0 in
  for i = 1 to n_formulas do
    let nvars, cls = random_cnf rng in
    let f = formula_of ~nvars cls in
    let oracle = Cnf.Formula.brute_force_sat f in
    (* each profile alone *)
    let profile_status =
      List.map
        (fun p -> is_sat (Sat.Profiles.solve p f).Sat.Profiles.result)
        Sat.Profiles.all
    in
    (* the portfolio, sharing on, ternaries included *)
    let o = Pf.solve ~k:3 ~share:true ~ternary_lbd_cap:3 f in
    let sat = is_sat o.Pf.result in
    check (Printf.sprintf "formula %d: race decided" i) true
      (not (is_undecided o.Pf.result));
    (match oracle with
    | Some truth ->
        check (Printf.sprintf "formula %d: matches oracle" i) true (truth = sat);
        List.iteri
          (fun j s ->
            check
              (Printf.sprintf "formula %d: profile %d agrees" i j)
              true (s = truth))
          profile_status
    | None -> ());
    n_exchanged := !n_exchanged + List.length o.Pf.exchanged;
    let formula_clauses =
      List.map Cnf.Clause.to_list (Cnf.Formula.clauses f)
    in
    certify_exchanged ~nvars ~formula_clauses o.Pf.exchanged;
    (* bookkeeping agrees with the exchange *)
    let exported =
      List.fold_left
        (fun acc r -> acc + r.Pf.rstats.Sat.Types.exported_clauses)
        0 o.Pf.reports
    in
    check_int
      (Printf.sprintf "formula %d: exported = published" i)
      (List.length o.Pf.exchanged) exported
  done;
  (* the sweep must actually exercise sharing, not just pass vacuously *)
  check "clauses were exchanged somewhere in the sweep" true (!n_exchanged > 0)

let test_imports_flow () =
  (* An unsatisfiable parity chain that neither seat refutes within 3000
     conflicts (resolution needs far more): no seat can win, so both run
     their whole budget, crossing several export slices, and both export
     the units and binaries they learn.  A seat imports at every slice
     boundary, and whichever seat runs later takes in what the other
     published before it, however the two domains are scheduled; the
     first record a seat learns is never true at the other's root.  So
     clauses must both travel to the exchange and be imported (the CI
     smoke asserts the same on a fixed instance). *)
  let f =
    Problems.Generators.parity_chain ~vertices:160 ~satisfiable:false
      ~rng:(Random.State.make [| 2 |])
  in
  let o = Pf.solve ~k:2 ~share:true ~conflict_budget:3000 f in
  check "no seat decides" true (is_undecided o.Pf.result);
  check "clauses travelled" true (o.Pf.exported > 0);
  check "clauses were imported" true (o.Pf.imported > 0)

let suite =
  [
    ( "portfolio",
      [
        Alcotest.test_case "exchange basic" `Quick test_exchange_basic;
        Alcotest.test_case "exchange growth" `Quick test_exchange_growth;
        Alcotest.test_case "exchange cross-domain" `Quick
          test_exchange_cross_domain;
        Alcotest.test_case "single seat bit-identity" `Quick
          test_single_seat_bit_identity;
        Alcotest.test_case "clone bit-identity" `Quick test_clone_bit_identity;
        Alcotest.test_case "race decides sat" `Quick test_race_decides_sat;
        Alcotest.test_case "race decides unsat and cancels" `Quick
          test_race_decides_unsat_and_cancels;
        Alcotest.test_case "race respects conflict budget" `Quick
          test_race_respects_conflict_budget;
        Alcotest.test_case "race caller interrupt" `Quick
          test_race_caller_interrupt;
        Alcotest.test_case "default workers shape" `Quick
          test_default_workers_shape;
        Alcotest.test_case "differential with sharing + certification"
          `Quick test_differential_with_sharing;
        Alcotest.test_case "imports flow" `Quick test_imports_flow;
      ] );
  ]
