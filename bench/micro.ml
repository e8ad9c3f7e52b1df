(* Bechamel micro-benchmarks for the GF(2) and conversion kernels. *)

module Json_out = Harness.Json_out

open Bechamel
open Toolkit

let bitvec_xor =
  let a = Gf2.Bitvec.of_list 4096 (List.init 512 (fun i -> i * 7 mod 4096)) in
  let b = Gf2.Bitvec.of_list 4096 (List.init 512 (fun i -> i * 13 mod 4096)) in
  Test.make ~name:"bitvec.xor_4096" (Staged.stage (fun () -> Gf2.Bitvec.xor_into ~src:a ~dst:b))

let random_matrix n =
  let rng = Random.State.make [| 3 |] in
  let m = Gf2.Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Random.State.bool rng then Gf2.Matrix.set m i j true
    done
  done;
  m

let matrix_rref =
  let m = random_matrix 128 in
  Test.make ~name:"matrix.rref_128" (Staged.stage (fun () -> Gf2.Matrix.rref (Gf2.Matrix.copy m)))

let matrix_rref_m4rm =
  let m = random_matrix 128 in
  Test.make ~name:"matrix.rref_m4rm_128"
    (Staged.stage (fun () -> Gf2.Matrix.rref_m4rm (Gf2.Matrix.copy m)))

let zdd_product =
  Test.make ~name:"zdd.dense_product_24"
    (Staged.stage (fun () ->
         let m = Anf.Zdd.create_manager () in
         let product = ref Anf.Zdd.one in
         for i = 0 to 23 do
           product := Anf.Zdd.mul m !product (Anf.Zdd.add m (Anf.Zdd.var m i) Anf.Zdd.one)
         done;
         !product))

let poly_mul =
  let p = Anf.Anf_io.poly_of_string (String.concat " + " (List.init 24 (fun i -> Printf.sprintf "x%d*x%d" i (i + 1)))) in
  let q = Anf.Anf_io.poly_of_string (String.concat " + " (List.init 24 (fun i -> Printf.sprintf "x%d" (i + 2)))) in
  Test.make ~name:"poly.mul_24x24" (Staged.stage (fun () -> Anf.Poly.mul p q))

let espresso =
  let on_set = List.init 97 (fun i -> i * 37 mod 256) in
  Test.make ~name:"espresso.minimise_8var"
    (Staged.stage (fun () -> Minimize.Espresso.minimise ~nvars:8 ~on_set))

let cdcl_php =
  let f =
    let holes = 6 in
    Problems.Generators.pigeonhole ~holes
  in
  Test.make ~name:"cdcl.php7x6"
    (Staged.stage (fun () ->
         let s = Sat.Solver.create ~nvars:(Cnf.Formula.nvars f) () in
         ignore (Sat.Solver.add_formula s f);
         Sat.Solver.solve s))

let xl_pass =
  let inst =
    Ciphers.Simon.instance ~rounds:5 ~n_plaintexts:2 ~rng:(Random.State.make [| 9 |]) ()
  in
  let eqs = inst.Ciphers.Simon.equations in
  Test.make ~name:"xl.simon_2_5"
    (Staged.stage (fun () ->
         Bosphorus.Xl.run ~config:Bosphorus.Config.default ~rng:(Random.State.make [| 1 |]) eqs))

(* Best wall time of [reps] runs, with the last run's result. *)
let best_of ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let x, w = Harness.Timing.time f in
    if w < !best then best := w;
    result := Some x
  done;
  (Option.get !result, !best)

(* ------------------------------------------------------------------ *)
(* BCP throughput: propagations/sec of the arena solver over the       *)
(* generated CNF suite, with GC-allocation and arena counters.         *)
(* ------------------------------------------------------------------ *)

(* The pre-arena solver (boxed clause records, eager watch detach) on this
   exact suite and budgets, measured before the arena rewrite landed:
   2,672,226 propagations in 4.8901 s end-to-end = 546,460 props/s.  Kept
   as a constant so BENCH_*.json trajectories record the speedup. *)
let prearena_props_per_sec = 546_460.0

let bcp_suite ~quick =
  let rng n = Random.State.make [| n |] in
  if quick then
    [ ("php5", Problems.Generators.pigeonhole ~holes:5, 20_000);
      ( "parity_unsat_26",
        Problems.Generators.parity_chain ~vertices:26 ~satisfiable:false ~rng:(rng 1),
        20_000 );
      ( "ksat_150",
        Problems.Generators.random_ksat ~nvars:150 ~n_clauses:638 ~k:3 ~rng:(rng 3),
        20_000 ) ]
  else
    [ ("php7", Problems.Generators.pigeonhole ~holes:7, 200_000);
      ( "parity_unsat_26",
        Problems.Generators.parity_chain ~vertices:26 ~satisfiable:false ~rng:(rng 1),
        60_000 );
      ( "parity_sat_26",
        Problems.Generators.parity_chain ~vertices:26 ~satisfiable:true ~rng:(rng 2),
        60_000 );
      ( "ksat_250",
        Problems.Generators.random_ksat ~nvars:250 ~n_clauses:1062 ~k:3 ~rng:(rng 3),
        60_000 );
      ( "coloring",
        Problems.Generators.coloring ~vertices:40 ~edges:110 ~colors:3 ~rng:(rng 4),
        60_000 );
      ( "miter",
        Problems.Generators.miter ~inputs:10 ~gates:40 ~buggy:false ~rng:(rng 5),
        60_000 ) ]

let bcp_throughput ~quick ?json () =
  Format.printf "@.=== BCP throughput (flat clause arena, jobs=1) ===@.@.";
  let reps = if quick then 2 else 3 in
  let rows = ref [] in
  let total_props = ref 0 and total_wall = ref 0.0 in
  List.iter
    (fun (name, f, budget) ->
      (* best-of over solve runs; the returned perf/stats belong to the
         fastest run *)
      let best = ref None in
      for _ = 1 to reps do
        let s = Sat.Solver.create ~nvars:(Cnf.Formula.nvars f) () in
        ignore (Sat.Solver.add_formula s f);
        let (), perf =
          Harness.Perf.measure (fun () ->
              ignore (Sat.Solver.solve ~conflict_budget:budget s))
        in
        match !best with
        | Some (_, p, _, _) when p.Harness.Perf.wall_s <= perf.Harness.Perf.wall_s -> ()
        | Some _ | None ->
            best := Some (name, perf, Sat.Solver.stats s, Sat.Solver.arena_bytes s)
      done;
      let _, perf, stats, arena_bytes = Option.get !best in
      let props = stats.Sat.Types.propagations in
      let pps = Harness.Perf.rate props perf in
      total_props := !total_props + props;
      total_wall := !total_wall +. perf.Harness.Perf.wall_s;
      (match json with
      | None -> ()
      | Some j ->
          Json_out.add j ~experiment:"micro" ~family:("bcp_" ^ name)
            ~wall_s:perf.Harness.Perf.wall_s ~jobs:1 ~perf
            ~extras:
              [ ("props_per_sec", pps);
                ("propagations", float_of_int props);
                ("conflicts", float_of_int stats.Sat.Types.conflicts);
                ("arena_bytes", float_of_int arena_bytes);
                ("lazy_detach_drops", float_of_int stats.Sat.Types.lazy_detach_drops);
                ("arena_gcs", float_of_int stats.Sat.Types.arena_gcs) ]
            ());
      rows :=
        [ name; string_of_int props; Printf.sprintf "%.4f" perf.Harness.Perf.wall_s;
          Printf.sprintf "%.0f" pps; string_of_int stats.Sat.Types.conflicts;
          Printf.sprintf "%dk" (arena_bytes / 1024);
          string_of_int stats.Sat.Types.lazy_detach_drops;
          string_of_int stats.Sat.Types.arena_gcs;
          Printf.sprintf "%.0fk" (perf.Harness.Perf.minor_words /. 1000.) ]
        :: !rows)
    (bcp_suite ~quick);
  let total_pps =
    if !total_wall > 0.0 then float_of_int !total_props /. !total_wall else 0.0
  in
  (match json with
  | None -> ()
  | Some j ->
      Json_out.add j ~experiment:"micro" ~family:"bcp_total" ~wall_s:!total_wall ~jobs:1
        ~extras:
          [ ("props_per_sec", total_pps);
            ("propagations", float_of_int !total_props);
            ( "speedup_vs_prearena",
              if quick then 0.0 else total_pps /. prearena_props_per_sec ) ]
        ());
  Format.printf "%s@."
    (Harness.Table.render
       ~title:(Printf.sprintf "BCP throughput (best of %d)" reps)
       ~headers:
         [ "instance"; "props"; "wall (s)"; "props/s"; "conflicts"; "arena";
           "lazy drops"; "gcs"; "minor alloc" ]
       (List.rev !rows));
  Format.printf "total: %d propagations in %.4fs = %.0f props/s%s@." !total_props
    !total_wall total_pps
    (if quick then ""
     else
       Printf.sprintf " (%.2fx the pre-arena %.0f props/s on this suite)"
         (total_pps /. prearena_props_per_sec)
         prearena_props_per_sec)

(* ------------------------------------------------------------------ *)
(* Allocation gate: the GC-regression check behind `micro --alloc-gate`. *)
(* ------------------------------------------------------------------ *)

(* Stored baseline: minor-heap words per propagation over the full
   bcp_ksat_250 run — solve end-to-end, so clause learning and database
   reduction are inside the measurement, not just BCP.  The boxed-clause
   solver of BENCH_3 measured 93.9 words/prop on this instance
   (246,405,696 words / 2,624,873 props); the off-heap rewrite brought it
   to ~0.15, and chasing the residual (boxed stat floats, closure
   captures in the restart path) landed at 0.0611 — deterministic across
   runs, since allocation is a pure function of the fixed trajectory.
   The bound of 0.25 locks in the >=375x reduction while leaving ~4x
   headroom for heuristic changes that shift the trajectory. *)
let alloc_gate_max_words_per_prop = 0.25

let run_alloc_gate ?json () =
  Format.printf "@.=== Allocation gate (GC regression check) ===@.@.";
  (* full-solve words/prop against the stored baseline *)
  let f =
    Problems.Generators.random_ksat ~nvars:250 ~n_clauses:1062 ~k:3
      ~rng:(Random.State.make [| 3 |])
  in
  let s = Sat.Solver.create ~nvars:(Cnf.Formula.nvars f) () in
  ignore (Sat.Solver.add_formula s f);
  let (), perf =
    Harness.Perf.measure (fun () -> ignore (Sat.Solver.solve ~conflict_budget:60_000 s))
  in
  let props = (Sat.Solver.stats s).Sat.Types.propagations in
  let words_per_prop = perf.Harness.Perf.minor_words /. float_of_int (Int.max 1 props) in
  (* steady-state burst: redoing a 200-deep implication chain must
     allocate exactly zero minor words once the stores are warm (the
     Gc.minor_words probe itself boxes its float result, so its measured
     overhead is subtracted) *)
  let n = 200 in
  let chain = Sat.Solver.create ~nvars:n () in
  for i = 0 to n - 2 do
    ignore
      (Sat.Solver.add_clause chain
         [ Cnf.Lit.make i ~negated:true; Cnf.Lit.make (i + 1) ~negated:false ])
  done;
  let l0 = Cnf.Lit.make 0 ~negated:false in
  ignore (Sat.Solver.burst_propagate chain l0 ~reps:10);
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  let w0 = Gc.minor_words () in
  let assigned = Sat.Solver.burst_propagate chain l0 ~reps:1_000 in
  let burst_extra = Gc.minor_words () -. w0 -. overhead in
  let solve_ok = words_per_prop <= alloc_gate_max_words_per_prop in
  let burst_ok = burst_extra = 0.0 in
  (match json with
  | None -> ()
  | Some j ->
      Json_out.add j ~experiment:"micro" ~family:"alloc_gate"
        ~wall_s:perf.Harness.Perf.wall_s ~jobs:1 ~perf
        ~extras:
          [ ("words_per_prop", words_per_prop);
            ("baseline_words_per_prop", alloc_gate_max_words_per_prop);
            ("propagations", float_of_int props);
            ("burst_assigned", float_of_int assigned);
            ("burst_extra_words", burst_extra);
            ("pass", if solve_ok && burst_ok then 1.0 else 0.0) ]
        ());
  Format.printf "%s@."
    (Harness.Table.render ~title:"allocation gate"
       ~headers:[ "check"; "measured"; "bound"; "verdict" ]
       [ [ "solve minor words/prop";
           Printf.sprintf "%.4f" words_per_prop;
           Printf.sprintf "<= %.2f" alloc_gate_max_words_per_prop;
           (if solve_ok then "pass" else "FAIL") ];
         [ "steady-state burst extra words";
           Printf.sprintf "%.0f" burst_extra; "= 0";
           (if burst_ok then "pass" else "FAIL") ] ]);
  if not (solve_ok && burst_ok) then begin
    Printf.eprintf
      "alloc-gate: FAILED (words/prop %.4f vs bound %.2f, burst extra %.0f)\n"
      words_per_prop alloc_gate_max_words_per_prop burst_extra;
    exit 1
  end;
  Format.printf "alloc-gate: pass (%.4f words/prop over %d props; burst of %d \
                 assigns allocated 0 words)@."
    words_per_prop props assigned

(* ------------------------------------------------------------------ *)
(* Portfolio race: every solver profile alone vs a K-seat diversified  *)
(* race with clause sharing on the same instances.  Two gates:         *)
(*   - cancellation gate (any host, conflict-based so wall-clock noise *)
(*     cannot trip it): in every decided race each losing seat stops   *)
(*     within a poll slice of the winner's decision — its conflict     *)
(*     count stays within 2x the winner's plus slack, instead of       *)
(*     running to its 300k budget.                                     *)
(*   - never-slower gate (hosts with >= portfolio_k domains): the race *)
(*     matches the best single profile's wall-clock outright, with a   *)
(*     strict speedup on at least one family.  Not meaningful on a     *)
(*     time-shared single core, where the K seats necessarily divide   *)
(*     the one core's throughput.                                      *)
(* ------------------------------------------------------------------ *)

let portfolio_k = 4

(* wall-clock headroom for the never-slower gate: scheduler jitter plus
   winner-identity variance — with sharing on, the racing trajectories
   differ from the solo ones, so the seat that wins need not be the
   profile that is fastest alone *)
let portfolio_gate_tolerance = 1.4

(* a cancelled loser stops at its next budget poll (every 128 conflicts)
   after at most one export slice (~1024 conflicts); the factor of two
   absorbs scheduler skew between the seats *)
let portfolio_loser_conflict_slack = 2048

let portfolio_suite ~quick =
  let rng n = Random.State.make [| n |] in
  if quick then
    [ ("php5", Problems.Generators.pigeonhole ~holes:5);
      ( "ksat_150",
        Problems.Generators.random_ksat ~nvars:150 ~n_clauses:638 ~k:3 ~rng:(rng 3) ) ]
  else
    (* chosen so the solve dominates the race's fixed overhead (domain
       reservation + arena clone, ~10ms): every profile decides each
       instance in 0.03-0.4s solo, and the profiles disagree about which
       instance is easy (cms5 is ~4x faster than lingeling on the sat
       ksat draw, minisat leads on php7) *)
    [ ("php7", Problems.Generators.pigeonhole ~holes:7);
      ( "ksat_sat_200",
        Problems.Generators.random_ksat ~nvars:200 ~n_clauses:850 ~k:3 ~rng:(rng 3) );
      ( "ksat_unsat_200",
        Problems.Generators.random_ksat ~nvars:200 ~n_clauses:880 ~k:3 ~rng:(rng 7) );
      ( "parity_unsat_34",
        Problems.Generators.parity_chain ~vertices:34 ~satisfiable:false ~rng:(rng 1) ) ]

let status_name = function
  | Sat.Types.Sat _ -> "sat"
  | Sat.Types.Unsat -> "unsat"
  | Sat.Types.Undecided -> "undecided"

let portfolio_race ~quick ?json () =
  Format.printf "@.=== Portfolio race (profiles alone vs portfolio-%d, clause sharing on) ===@.@."
    portfolio_k;
  let budget = if quick then 60_000 else 300_000 in
  let reps = if quick then 1 else 2 in
  let host_domains = Domain.recommended_domain_count () in
  let enforce_never_slower = host_domains >= portfolio_k in
  let rows = ref [] in
  let total_best = ref 0.0 and total_port = ref 0.0 in
  let strict_speedups = ref 0 in
  let cancel_failures = ref [] in
  let wins = Hashtbl.create 4 in
  List.iter
    (fun (name, f) ->
      let prof_runs =
        List.map
          (fun p ->
            let result, w =
              best_of ~reps (fun () ->
                  let s =
                    Sat.Solver.create ~config:(Sat.Profiles.config p)
                      ~nvars:(Cnf.Formula.nvars f) ()
                  in
                  ignore (Sat.Solver.add_formula s f);
                  Sat.Solver.solve ~conflict_budget:budget s)
            in
            (Sat.Profiles.name p, result, w))
          Sat.Profiles.all
      in
      let best_w =
        List.fold_left (fun acc (_, _, w) -> Float.min acc w) infinity prof_runs
      in
      let o, port_w =
        best_of ~reps (fun () ->
            Sat.Portfolio.solve ~conflict_budget:budget ~k:portfolio_k
              ~ternary_lbd_cap:3 f)
      in
      (* status differential: every decided answer must agree *)
      let statuses =
        List.filter_map
          (fun (pn, r, _) ->
            match r with Sat.Types.Undecided -> None | r -> Some (pn, status_name r))
          (("portfolio", o.Sat.Portfolio.result, port_w)
          :: List.map (fun (pn, r, w) -> (pn, r, w)) prof_runs)
      in
      (match statuses with
      | (_, first) :: rest ->
          List.iter
            (fun (pn, st) ->
              if st <> first then
                failwith
                  (Printf.sprintf "micro: portfolio status differential on %s: %s=%s"
                     name pn st))
            rest
      | [] -> ());
      let winner_name =
        if o.Sat.Portfolio.winner < 0 then "-"
        else (List.nth o.Sat.Portfolio.reports o.Sat.Portfolio.winner).Sat.Portfolio.rname
      in
      if o.Sat.Portfolio.winner >= 0 then
        Hashtbl.replace wins winner_name
          (1 + Option.value ~default:0 (Hashtbl.find_opt wins winner_name));
      (* the gates reason about time-to-first-decision, so an instance no
         seat decides within its budget (every seat burns the full per-seat
         budget; cancellation never fires) is reported but not gated *)
      if o.Sat.Portfolio.winner >= 0 then begin
        total_best := !total_best +. best_w;
        total_port := !total_port +. port_w;
        if port_w < best_w then incr strict_speedups;
        let winner_conf =
          (List.nth o.Sat.Portfolio.reports o.Sat.Portfolio.winner)
            .Sat.Portfolio.rstats.Sat.Types.conflicts
        in
        List.iter
          (fun r ->
            let c = r.Sat.Portfolio.rstats.Sat.Types.conflicts in
            if
              (not r.Sat.Portfolio.rwinner)
              && c > (2 * winner_conf) + portfolio_loser_conflict_slack
            then
              cancel_failures :=
                Printf.sprintf "%s/%s: loser ran %d conflicts vs winner's %d"
                  name r.Sat.Portfolio.rname c winner_conf
                :: !cancel_failures)
          o.Sat.Portfolio.reports
      end;
      (match json with
      | None -> ()
      | Some j ->
          let per_worker =
            List.concat
              (List.mapi
                 (fun i r ->
                   [ (Printf.sprintf "w%d_imported" i,
                      float_of_int r.Sat.Portfolio.rstats.Sat.Types.imported_clauses);
                     (Printf.sprintf "w%d_exported" i,
                      float_of_int r.Sat.Portfolio.rstats.Sat.Types.exported_clauses);
                     (Printf.sprintf "w%d_win" i,
                      if r.Sat.Portfolio.rwinner then 1.0 else 0.0) ])
                 o.Sat.Portfolio.reports)
          in
          let prof_extras =
            List.map (fun (pn, _, w) -> (pn ^ "_wall_s", w)) prof_runs
          in
          Json_out.add j ~experiment:"micro" ~family:("portfolio_" ^ name)
            ~wall_s:port_w ~jobs:portfolio_k
            ~extras:
              (prof_extras
              @ [ ("best_profile_wall_s", best_w);
                  ("ratio_vs_best", port_w /. best_w);
                  ("winner_seat", float_of_int o.Sat.Portfolio.winner);
                  ("imported_clauses", float_of_int o.Sat.Portfolio.imported);
                  ("exported_clauses", float_of_int o.Sat.Portfolio.exported) ]
              @ per_worker)
            ());
      rows :=
        (name
        :: List.map (fun (_, _, w) -> Printf.sprintf "%.4f" w) prof_runs
        @ [ Printf.sprintf "%.4f" port_w;
            Printf.sprintf "%.2fx" (port_w /. best_w);
            winner_name;
            status_name o.Sat.Portfolio.result;
            Printf.sprintf "%d/%d" o.Sat.Portfolio.imported o.Sat.Portfolio.exported ])
        :: !rows)
    (portfolio_suite ~quick);
  if !total_best = 0.0 then
    failwith "micro: portfolio race decided no instance — gates would be vacuous";
  let strict_bound = !total_best *. portfolio_gate_tolerance in
  let cancel_ok = !cancel_failures = [] in
  let strict_ok = !total_port <= strict_bound in
  (match json with
  | None -> ()
  | Some j ->
      Json_out.add j ~experiment:"micro" ~family:"portfolio_total" ~wall_s:!total_port
        ~jobs:portfolio_k
        ~extras:
          [ ("best_profile_wall_s", !total_best);
            ("ratio_vs_best", !total_port /. !total_best);
            ("host_domains", float_of_int host_domains);
            ("cancellation_gate_pass", if cancel_ok then 1.0 else 0.0);
            ("never_slower_enforced", if enforce_never_slower then 1.0 else 0.0);
            ("never_slower_pass", if strict_ok then 1.0 else 0.0);
            ("strict_speedup_families", float_of_int !strict_speedups) ]
        ());
  Format.printf "%s@."
    (Harness.Table.render
       ~title:
         (Printf.sprintf "portfolio race (best of %d, %d host domains)" reps host_domains)
       ~headers:
         ([ "instance" ]
         @ List.map Sat.Profiles.name Sat.Profiles.all
         @ [ Printf.sprintf "portfolio-%d" portfolio_k; "vs best"; "winner"; "status";
             "imp/exp" ])
       (List.rev !rows));
  Hashtbl.iter
    (fun n c -> Format.printf "wins: %s x%d@." n c)
    wins;
  if not cancel_ok then
    failwith
      (Printf.sprintf "micro: portfolio cancellation gate failed: %s"
         (String.concat "; " !cancel_failures));
  if enforce_never_slower && not strict_ok then
    failwith
      (Printf.sprintf
         "micro: portfolio never-slower gate failed: %.4fs > best %.4fs x %.2f"
         !total_port !total_best portfolio_gate_tolerance);
  (* on a host with real parallelism the race must also beat the best
     profile outright somewhere, not merely tie everywhere *)
  if enforce_never_slower && !strict_speedups = 0 then
    failwith "micro: portfolio race showed no strict speedup on any family";
  Format.printf
    "portfolio gate: cancellation pass (every loser within 2x winner \
     conflicts + %d); never-slower %s (%.4fs vs best %.4fs)@."
    portfolio_loser_conflict_slack
    (if enforce_never_slower then (if strict_ok then "pass" else "FAIL")
     else
       Printf.sprintf "%s (advisory: %d host domain%s < %d seats)"
         (if strict_ok then "pass" else "miss")
         host_domains
         (if host_domains = 1 then "" else "s")
         portfolio_k)
    !total_port !total_best

(* ------------------------------------------------------------------ *)
(* DIMACS load: throughput of the buffered zero-allocation tokenizer.  *)
(* ------------------------------------------------------------------ *)

let dimacs_load ~quick ?json () =
  Format.printf "@.=== DIMACS load (buffered tokenizer) ===@.@.";
  let nvars = if quick then 2_000 else 6_000 in
  let n_clauses = nvars * 425 / 100 in
  let f =
    Problems.Generators.random_ksat ~nvars ~n_clauses ~k:3
      ~rng:(Random.State.make [| 7 |])
  in
  let text = Cnf.Dimacs.write_string f in
  let bytes = String.length text in
  let reps = if quick then 3 else 5 in
  let parsed, wall = best_of ~reps (fun () -> Cnf.Dimacs.parse_string text) in
  if Cnf.Formula.n_clauses parsed <> n_clauses then
    failwith "micro: dimacs round-trip lost clauses";
  (* and through the streaming file reader *)
  let path = Filename.temp_file "bosphorus_bench" ".cnf" in
  let file_wall =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Cnf.Dimacs.write_file path f;
        snd (best_of ~reps (fun () -> Cnf.Dimacs.parse_file path)))
  in
  let mbps w = float_of_int bytes /. w /. 1048576.0 in
  (match json with
  | None -> ()
  | Some j ->
      Json_out.add j ~experiment:"micro" ~family:"dimacs_parse_string" ~wall_s:wall
        ~jobs:1
        ~extras:
          [ ("mb_per_sec", mbps wall);
            ("bytes", float_of_int bytes);
            ("clauses", float_of_int n_clauses) ]
        ();
      Json_out.add j ~experiment:"micro" ~family:"dimacs_parse_file" ~wall_s:file_wall
        ~jobs:1
        ~extras:[ ("mb_per_sec", mbps file_wall); ("bytes", float_of_int bytes) ]
        ());
  Format.printf "%s@."
    (Harness.Table.render
       ~title:
         (Printf.sprintf "DIMACS load, %d clauses / %.1f MiB (best of %d)" n_clauses
            (float_of_int bytes /. 1048576.0)
            reps)
       ~headers:[ "path"; "wall (s)"; "MiB/s" ]
       [ [ "parse_string"; Printf.sprintf "%.4f" wall; Printf.sprintf "%.1f" (mbps wall) ];
         [ "parse_file"; Printf.sprintf "%.4f" file_wall;
           Printf.sprintf "%.1f" (mbps file_wall) ] ])

let run_full ~quick ?json () =
  Format.printf "@.=== Micro-benchmarks (Bechamel, monotonic clock) ===@.@.";
  let tests = [ bitvec_xor; matrix_rref; matrix_rref_m4rm; zdd_product; poly_mul; espresso; cdcl_php; xl_pass ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if quick then Time.second 0.1 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"kernels" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> Printf.sprintf "%12.1f" t
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      rows := [ name; ns; r2 ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  Format.printf "%s@."
    (Harness.Table.render ~title:"kernel timings" ~headers:[ "kernel"; "ns/run"; "r²" ] rows);
  bcp_throughput ~quick ?json ();
  dimacs_load ~quick ?json ();
  portfolio_race ~quick ?json ()

(* [--alloc-gate] runs only the GC-regression gate and [--portfolio]
   only the portfolio race (both fast enough for a CI step); otherwise
   the full micro suite. *)
let run ?(quick = false) ?(alloc_gate = false) ?(portfolio = false) ?json () =
  if alloc_gate then run_alloc_gate ?json ()
  else if portfolio then portfolio_race ~quick ?json ()
  else run_full ~quick ?json ()
