(* One regeneration procedure per table/figure of the paper (DESIGN.md's
   per-experiment index names these E1..E8, A1, A2). *)

module Json_out = Harness.Json_out

module P = Anf.Poly

let poly = Anf.Anf_io.poly_of_string
let header title = Format.printf "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* E1: Table I — XL worked example                                      *)
(* ------------------------------------------------------------------ *)

(* The full XL expansion of a small system: every polynomial, then its
   products by the multipliers, first occurrences kept. *)
let expand ~multipliers polys =
  List.rev
    (List.fold_left
       (fun acc p -> if P.is_zero p || List.exists (P.equal p) acc then acc else p :: acc)
       []
       (List.concat_map (fun p -> p :: List.map (P.mul_monomial p) multipliers) polys))

let table1 () =
  header "Table I: eXtended Linearization on {x1x2+x1+1, x2x3+x3}, D = 1";
  let system = [ poly "x1*x2 + x1 + 1"; poly "x2*x3 + x3" ] in
  let mults = Bosphorus.Xl.multipliers ~vars:[ 1; 2; 3 ] ~degree:1 in
  let expanded = expand ~multipliers:mults system in
  Format.printf "(a) expanded system (%d distinct rows):@." (List.length expanded);
  List.iter (fun p -> Format.printf "    %a@." P.pp p) expanded;
  let { Bosphorus.Linearize.rank; rows; _ } = Bosphorus.Linearize.reduce expanded in
  Format.printf "@.(b) after Gauss-Jordan elimination (rank %d):@." rank;
  List.iter (fun p -> Format.printf "    %a@." P.pp p) rows;
  let facts = Bosphorus.Xl.retain_facts rows in
  Format.printf "@.retained facts: %s@."
    (String.concat ", " (List.map P.to_string facts));
  Format.printf "(paper: the linear facts are x1+1, x2, x3)@."

(* ------------------------------------------------------------------ *)
(* E2: Section II-E worked example                                      *)
(* ------------------------------------------------------------------ *)

let example_system () =
  List.map poly
    [
      "x1*x2 + x3 + x4 + 1";
      "x1*x2*x3 + x1 + x3 + 1";
      "x1*x3 + x3*x4*x5 + x3";
      "x2*x3 + x3*x5 + 1";
      "x2*x3 + x5 + 1";
    ]

let example () =
  header "Section II-E example: what each technique learns on system (1)";
  let system = example_system () in
  let config = Bosphorus.Config.default in
  let xl = Bosphorus.Xl.run ~config ~rng:(Random.State.make [| 0 |]) system in
  Format.printf "XL facts:      %s@."
    (String.concat ", " (List.map P.to_string xl.Bosphorus.Xl.facts));
  let el = Bosphorus.Elimlin.run_full (system @ xl.Bosphorus.Xl.facts) in
  Format.printf "ElimLin facts: %s@."
    (String.concat ", " (List.map P.to_string el.Bosphorus.Elimlin.facts));
  let outcome = Bosphorus.Driver.run ~config system in
  (match outcome.Bosphorus.Driver.status with
  | Bosphorus.Driver.Solved_sat sol ->
      Format.printf "driver: SAT in %d iteration(s);" outcome.Bosphorus.Driver.iterations;
      List.iter
        (fun (x, v) -> if x >= 1 then Format.printf " x%d=%d" x (if v then 1 else 0))
        sol;
      Format.printf "@."
  | Bosphorus.Driver.Solved_unsat | Bosphorus.Driver.Processed
  | Bosphorus.Driver.Degraded ->
      Format.printf "driver: unexpected status@.");
  Format.printf "(paper: unique solution x1 = x2 = x3 = x4 = 1, x5 = 0)@."

(* ------------------------------------------------------------------ *)
(* E3: Fig. 2 / Fig. 3 — Karnaugh vs Tseitin conversion                 *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "Fig. 2: ANF-to-CNF conversions of x1x3 + x1 + x2 + x4 + 1";
  let p = poly "x1*x3 + x1 + x2 + x4 + 1" in
  let karnaugh_cfg = { Bosphorus.Config.default with Bosphorus.Config.karnaugh_vars = 8 } in
  let tseitin_cfg = { Bosphorus.Config.default with Bosphorus.Config.karnaugh_vars = 0 } in
  let show label cfg =
    let clauses = Bosphorus.Anf_to_cnf.convert_poly_clauses ~config:cfg p in
    let aux =
      List.fold_left (fun acc c -> max acc (Cnf.Clause.max_var c)) 0 clauses - 4
    in
    Format.printf "%s: %d clauses, %d auxiliary variable(s)@." label (List.length clauses)
      (max 0 aux);
    List.iter (fun c -> Format.printf "    %a@." Cnf.Clause.pp c) clauses
  in
  show "Karnaugh map (left of Fig. 2) " karnaugh_cfg;
  show "Tseitin-based (right of Fig. 2)" tseitin_cfg;
  Format.printf "(paper: 6 clauses vs 11 clauses with one auxiliary variable)@."

(* ------------------------------------------------------------------ *)
(* E5-E8: Table II — PAR-2 with and without Bosphorus, three solvers    *)
(* ------------------------------------------------------------------ *)

let table2 ?(quick = false) ?family_filter ?json () =
  header
    (Printf.sprintf
       "Table II: PAR-2 (seconds; lower is better) and solved counts; timeout %.0fs, \
        conflict budget %d"
       Runners.nominal_timeout_s Runners.final_conflict_budget);
  let families = Families.table2_families ~quick in
  let families =
    match family_filter with
    | None -> families
    | Some name ->
        let canonical label =
          match String.lowercase_ascii label with
          | l when String.length l >= 2 && String.sub l 0 2 = "sr" -> "aes"
          | l -> l
        in
        let want = String.lowercase_ascii name in
        List.filter
          (fun f ->
            let label = canonical f.Families.label in
            String.length label >= String.length want
            && String.sub label 0 (String.length want) = want)
          families
  in
  let rows = ref [] in
  List.iter
    (fun family ->
      let n = List.length family.Families.instances in
      (* per instance, one after another: the without-Bosphorus solves,
         the (shared) preprocessing run, and the with-Bosphorus solves *)
      let per_instance, fam_wall =
        Harness.Timing.time (fun () ->
            List.map
              (fun inst ->
                let wo =
                  List.map
                    (fun profile -> Runners.solve_without profile inst.Families.problem)
                    Sat.Profiles.all
                in
                let pre = Runners.preprocess inst.Families.problem in
                let w = List.map (fun profile -> Runners.solve_with profile pre) Sat.Profiles.all in
                (wo, pre, w))
              family.Families.instances)
      in
      (* transpose instance-major results back to profile-major *)
      let nprof = List.length Sat.Profiles.all in
      let wo_runs =
        List.init nprof (fun p -> List.map (fun (wo, _, _) -> List.nth wo p) per_instance)
      in
      let w_runs =
        List.init nprof (fun p -> List.map (fun (_, _, w) -> List.nth w p) per_instance)
      in
      (match json with
      | None -> ()
      | Some j ->
          let facts =
            List.fold_left
              (fun acc (_, pre, _) ->
                acc + Bosphorus.Facts.size pre.Runners.outcome.Bosphorus.Driver.facts)
              0 per_instance
          in
          (* aggregate budget accounting over the family's instances:
             how many runs degraded, plus the summed conflict spend and
             the largest monomial gauge seen *)
          let reports =
            List.filter_map
              (fun (_, pre, _) ->
                pre.Runners.outcome.Bosphorus.Driver.budget_report)
              per_instance
          in
          let extras =
            if reports = [] then []
            else
              [ ( "degraded_runs",
                  float_of_int
                    (List.length
                       (List.filter (fun r -> r.Harness.Budget.trip <> None) reports)) );
                ( "conflicts_used",
                  float_of_int
                    (List.fold_left
                       (fun a r -> a + r.Harness.Budget.conflicts_used)
                       0 reports) );
                ( "cells_peak",
                  float_of_int
                    (List.fold_left
                       (fun a r -> max a r.Harness.Budget.cells_peak)
                       0 reports) ) ]
          in
          Json_out.add j ~experiment:"table2" ~family:family.Families.label ~wall_s:fam_wall
            ~facts ~extras ~jobs:1 ());
      let cells runs =
        List.map (Harness.Par2.cell ~timeout_s:Runners.nominal_timeout_s) runs
      in
      rows :=
        ([ ""; "w" ] @ cells w_runs)
        :: (Printf.sprintf "%s (%d)" family.Families.label n :: "w/o" :: cells wo_runs)
        :: !rows;
      (* print incrementally so long runs show progress *)
      Format.printf "%s@."
        (Harness.Table.render
           ~title:(Printf.sprintf "%s (%d instances)" family.Families.label n)
           ~headers:[ "problem"; ""; "MiniSat-like"; "Lingeling-like"; "CMS5-like" ]
           [ List.nth !rows 1; List.nth !rows 0 ]))
    families;
  Format.printf "%s@."
    (Harness.Table.render ~title:"Table II (all families)"
       ~headers:[ "problem"; ""; "MiniSat-like"; "Lingeling-like"; "CMS5-like" ]
       (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* A1: ablation — which technique contributes what                      *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation: driver stage toggles on a Simon-[4,6] instance";
  let inst =
    Ciphers.Simon.instance ~rounds:6 ~n_plaintexts:4 ~rng:(Random.State.make [| 55 |]) ()
  in
  let eqs = inst.Ciphers.Simon.equations in
  let variants =
    [
      ("full loop", Bosphorus.Driver.all_stages);
      ( "XL only",
        { Bosphorus.Driver.use_xl = true; use_elimlin = false; use_sat = false; use_groebner = false } );
      ( "ElimLin only",
        { Bosphorus.Driver.use_xl = false; use_elimlin = true; use_sat = false; use_groebner = false } );
      ( "SAT only",
        { Bosphorus.Driver.use_xl = false; use_elimlin = false; use_sat = true; use_groebner = false } );
      ( "XL + ElimLin",
        { Bosphorus.Driver.use_xl = true; use_elimlin = true; use_sat = false; use_groebner = false } );
      ( "Groebner only (Sec. V ext.)",
        { Bosphorus.Driver.use_xl = false; use_elimlin = false; use_sat = false; use_groebner = true } );
      ( "full + Groebner",
        { Bosphorus.Driver.all_stages with Bosphorus.Driver.use_groebner = true } );
    ]
  in
  let rows =
    List.map
      (fun (name, stages) ->
        let outcome, secs =
          Harness.Timing.time (fun () ->
              Bosphorus.Driver.run_with_stages ~config:Runners.bosphorus_config ~stages eqs)
        in
        let facts = outcome.Bosphorus.Driver.facts in
        let status =
          match outcome.Bosphorus.Driver.status with
          | Bosphorus.Driver.Solved_sat _ -> "solved (SAT)"
          | Bosphorus.Driver.Solved_unsat -> "solved (UNSAT)"
          | Bosphorus.Driver.Processed -> "processed"
          | Bosphorus.Driver.Degraded -> "degraded"
        in
        [
          name;
          status;
          string_of_int (Bosphorus.Facts.size facts);
          string_of_int (Bosphorus.Facts.count_by facts Bosphorus.Facts.Xl);
          string_of_int (Bosphorus.Facts.count_by facts Bosphorus.Facts.Elimlin);
          string_of_int (Bosphorus.Facts.count_by facts Bosphorus.Facts.Sat_solver);
          string_of_int (Bosphorus.Facts.count_by facts Bosphorus.Facts.Groebner);
          Printf.sprintf "%.2f" secs;
        ])
      variants
  in
  Format.printf "%s@."
    (Harness.Table.render ~title:"stage ablation"
       ~headers:[ "stages"; "status"; "facts"; "XL"; "ElimLin"; "SAT"; "GB"; "time(s)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Incremental SAT rounds: per-round re-encoding and search counters    *)
(* ------------------------------------------------------------------ *)

let incremental ?(quick = false) ?json () =
  header
    "Incremental SAT rounds: persistent solver + delta encoding vs a fresh \
     solver per round";
  let inst =
    Ciphers.Simon.instance ~rounds:(if quick then 4 else 6) ~n_plaintexts:2
      ~rng:(Random.State.make [| 77 |]) ()
  in
  let eqs = inst.Ciphers.Simon.equations in
  (* several loop iterations, no early exit on solution: the point is the
     multi-round behaviour *)
  let base =
    {
      Runners.bosphorus_config with
      Bosphorus.Config.max_iterations = (if quick then 3 else 5);
      stop_on_solution = false;
    }
  in
  let run_mode label incremental_sat =
    let config = { base with Bosphorus.Config.incremental_sat } in
    let outcome, perf =
      Harness.Perf.measure (fun () -> Bosphorus.Driver.run ~config eqs)
    in
    (label, outcome, perf)
  in
  let modes = [ run_mode "incremental" true; run_mode "fresh" false ] in
  let is_incremental label = label = "incremental" in
  List.iter
    (fun (label, outcome, _) ->
      let rows =
        List.mapi
          (fun i (r : Bosphorus.Driver.round_info) ->
            [ string_of_int (i + 1);
              string_of_int r.Bosphorus.Driver.round_encoded;
              string_of_int r.Bosphorus.Driver.round_reused;
              string_of_int r.Bosphorus.Driver.round_delta_clauses;
              string_of_int r.Bosphorus.Driver.round_propagations;
              string_of_int r.Bosphorus.Driver.round_conflicts ])
          outcome.Bosphorus.Driver.sat_rounds
      in
      Format.printf "%s@."
        (Harness.Table.render
           ~title:(Printf.sprintf "%s: per-round counters" label)
           ~headers:
             [ "round"; "polys encoded"; "polys reused"; "delta clauses";
               "propagations"; "conflicts" ]
           rows))
    modes;
  let totals ~incremental (outcome : Bosphorus.Driver.outcome) =
    (* clauses reused in round k = clauses already in the solver when the
       round starts (none are re-encoded); a fresh solver per round reuses
       nothing *)
    let _, reused_clauses =
      List.fold_left
        (fun (cum, reused) (r : Bosphorus.Driver.round_info) ->
          ( cum + r.Bosphorus.Driver.round_delta_clauses,
            if incremental then reused + cum else reused ))
        (0, 0) outcome.Bosphorus.Driver.sat_rounds
    in
    let sum f = List.fold_left (fun a r -> a + f r) 0 outcome.Bosphorus.Driver.sat_rounds in
    ( reused_clauses,
      sum (fun r -> r.Bosphorus.Driver.round_reused),
      sum (fun r -> r.Bosphorus.Driver.round_propagations),
      sum (fun r -> r.Bosphorus.Driver.round_conflicts) )
  in
  let summary =
    List.map
      (fun (label, outcome, perf) ->
        let reused_clauses, reused_polys, props, conflicts =
          totals ~incremental:(is_incremental label) outcome
        in
        (match json with
        | None -> ()
        | Some j ->
            Json_out.add j ~experiment:"incremental" ~family:("simon_" ^ label)
              ~wall_s:perf.Harness.Perf.wall_s
              ~facts:(Bosphorus.Facts.size outcome.Bosphorus.Driver.facts)
              ~jobs:1
              ~extras:
                ([ ("rounds", float_of_int (List.length outcome.Bosphorus.Driver.sat_rounds));
                   ("reused_clauses", float_of_int reused_clauses);
                   ("reused_polys", float_of_int reused_polys);
                   ("propagations", float_of_int props);
                   ("conflicts", float_of_int conflicts);
                   ("gc_minor_words", perf.Harness.Perf.minor_words);
                   ("gc_major_words", perf.Harness.Perf.major_words) ]
                @ Runners.budget_extras outcome)
              ());
        [ label;
          string_of_int (List.length outcome.Bosphorus.Driver.sat_rounds);
          string_of_int (Bosphorus.Facts.size outcome.Bosphorus.Driver.facts);
          string_of_int reused_clauses; string_of_int props;
          Printf.sprintf "%.2f" perf.Harness.Perf.wall_s;
          Printf.sprintf "%.0fk" (perf.Harness.Perf.minor_words /. 1000.) ])
      modes
  in
  Format.printf "%s@."
    (Harness.Table.render ~title:"incremental vs fresh (same fact set expected)"
       ~headers:
         [ "mode"; "rounds"; "facts"; "clauses reused"; "propagations"; "wall (s)";
           "minor alloc" ]
       summary)

(* ------------------------------------------------------------------ *)
(* A3: polynomial representations — expanded lists vs PolyBoRi-style ZDDs *)
(* ------------------------------------------------------------------ *)

let representations () =
  header
    "Representation ablation: expanded monomial lists (Poly) vs hash-consed \
     ZDDs (Zdd, PolyBoRi's structure)";
  let rows = ref [] in
  List.iter
    (fun k ->
      (* the dense product (x0+1)(x1+1)...(x(k-1)+1): 2^k monomials *)
      let zdd_m = Anf.Zdd.create_manager () in
      let (zdd, zdd_nodes, zdd_terms), zdd_time =
        Harness.Timing.time (fun () ->
            let product = ref Anf.Zdd.one in
            for i = 0 to k - 1 do
              product :=
                Anf.Zdd.mul zdd_m !product
                  (Anf.Zdd.add zdd_m (Anf.Zdd.var zdd_m i) Anf.Zdd.one)
            done;
            (!product, Anf.Zdd.node_count zdd_m !product, Anf.Zdd.n_terms zdd_m !product))
      in
      ignore zdd;
      let poly_cell, poly_time =
        if k <= 16 then begin
          let (terms : int), t =
            Harness.Timing.time (fun () ->
                let product = ref Anf.Poly.one in
                for i = 0 to k - 1 do
                  product :=
                    Anf.Poly.mul !product (Anf.Poly.add (Anf.Poly.var i) Anf.Poly.one)
                done;
                Anf.Poly.n_terms !product)
          in
          (Printf.sprintf "%d terms" terms, Printf.sprintf "%.4f" t)
        end
        else ("(skipped: 2^k terms)", "-")
      in
      rows :=
        [
          string_of_int k;
          string_of_int zdd_terms;
          string_of_int zdd_nodes;
          Printf.sprintf "%.4f" zdd_time;
          poly_cell;
          poly_time;
        ]
        :: !rows)
    [ 8; 12; 16; 20; 24 ];
  Format.printf "%s@."
    (Harness.Table.render ~title:"dense product (x0+1)...(x(k-1)+1)"
       ~headers:[ "k"; "zdd terms"; "zdd nodes"; "zdd time(s)"; "poly"; "poly time(s)" ]
       (List.rev !rows));
  Format.printf
    "(the ZDD holds 2^k monomials in k nodes - the memory headroom PolyBoRi\n\
    \ gives the original tool; our expanded Poly is the simple substitute)@."

(* ------------------------------------------------------------------ *)
(* A2: encoding sweep — Karnaugh bound K and cutting length L            *)
(* ------------------------------------------------------------------ *)

let encoding_sweep () =
  header "Encoding sweep: Karnaugh bound K and XOR-cut length L (Section III-C)";
  let inst =
    Ciphers.Simon.instance ~rounds:6 ~n_plaintexts:2 ~rng:(Random.State.make [| 66 |]) ()
  in
  let eqs = inst.Ciphers.Simon.equations in
  let rows = ref [] in
  List.iter
    (fun k ->
      List.iter
        (fun l ->
          let config =
            { Bosphorus.Config.default with Bosphorus.Config.karnaugh_vars = k; xor_cut_length = l }
          in
          let conv, secs =
            Harness.Timing.time (fun () -> Bosphorus.Anf_to_cnf.convert ~config eqs)
          in
          let f = conv.Bosphorus.Anf_to_cnf.formula in
          let (out : Sat.Profiles.output), solve_secs =
            Harness.Timing.time (fun () ->
                Sat.Profiles.solve ~conflict_budget:Runners.final_conflict_budget
                  Sat.Profiles.Minisat f)
          in
          let conflicts =
            match out.Sat.Profiles.stats with Some st -> st.Sat.Types.conflicts | None -> 0
          in
          rows :=
            [
              string_of_int k;
              string_of_int l;
              string_of_int (Cnf.Formula.nvars f);
              string_of_int (Cnf.Formula.n_clauses f);
              string_of_int conv.Bosphorus.Anf_to_cnf.n_karnaugh;
              string_of_int conv.Bosphorus.Anf_to_cnf.n_tseitin;
              Printf.sprintf "%.3f" secs;
              Format.asprintf "%a" Sat.Types.pp_result out.Sat.Profiles.result;
              string_of_int conflicts;
              Printf.sprintf "%.3f" solve_secs;
            ]
            :: !rows)
        [ 3; 5; 8 ])
    [ 0; 4; 8 ];
  Format.printf "%s@."
    (Harness.Table.render ~title:"Simon-[2,6] instance under K x L"
       ~headers:
         [ "K"; "L"; "vars"; "clauses"; "kmap"; "tseitin"; "conv(s)"; "result"; "conflicts"; "solve(s)" ]
       (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* A4: service throughput — the daemon under batch load                 *)
(* ------------------------------------------------------------------ *)

(* Requests-per-second through one shared daemon at client concurrency
   1 then 4.  The c1 pass starts cold and pays every encoding miss; the
   c4 pass runs against the cache the c1 pass warmed, so it measures the
   steady-state service path (lookup + replay) a long-lived daemon
   actually serves — that, not parallel compute (this may be a 1-CPU
   box), is why the c4 row's rps dominates and why CI gates on
   c4 >= c1. *)
let service ?(quick = false) ?json () =
  header "Service throughput: daemon rps at client concurrency 1 (cold) vs 4 (warm)";
  let pool =
    (* seeded random quadratic systems, hard enough to reach the SAT
       stage but still millisecond-scale *)
    List.init 12 (fun i ->
        let rng = Random.State.make [| 0x5e41 + i |] in
        let nvars = 24 in
        let var () = 1 + Random.State.int rng nvars in
        let quad () = P.mul (P.var (var ())) (P.var (var ())) in
        let p () =
          let t = 2 + Random.State.int rng 3 in
          let q =
            List.fold_left
              (fun acc _ -> P.add acc (quad ()))
              P.zero
              (List.init t (fun _ -> ()))
          in
          if Random.State.bool rng then P.add q P.one else q
        in
        Anf.Anf_io.write_string (List.init (nvars - 4) (fun _ -> p ())))
  in
  let repeat = if quick then 2 else 4 in
  let requests = List.concat (List.init repeat (fun _ -> pool)) in
  let n_requests = List.length requests in
  let socket_path = "bench-service.sock" in
  let cfg =
    {
      (Service.Daemon.default_config ~socket_path) with
      Service.Daemon.workers = 2;
    }
  in
  let daemon = Service.Daemon.start cfg in
  let levels =
    Fun.protect ~finally:(fun () -> Service.Daemon.stop daemon) @@ fun () ->
    let stat stats k = Option.value ~default:0.0 (List.assoc_opt k stats) in
    let run_level conc =
      let hits0 = stat (Service.Daemon.stats daemon) "cache_hits" in
      let queue = Queue.of_seq (List.to_seq requests) in
      let qm = Mutex.create () in
      let pop () =
        Mutex.lock qm;
        let x = Queue.take_opt queue in
        Mutex.unlock qm;
        x
      in
      let failures = Atomic.make 0 in
      let worker id () =
        let c = Service.Client.connect socket_path in
        Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
        let rec loop () =
          match pop () with
          | None -> ()
          | Some text ->
              (match
                 Service.Client.submit c
                   ~client:(Printf.sprintf "bench-%d" id)
                   ~format:Service.Protocol.Anf text
               with
              | Ok (Service.Protocol.Result _) -> ()
              | Ok _ | Error _ -> Atomic.incr failures);
              loop ()
        in
        loop ()
      in
      let (), wall_s =
        Harness.Timing.time (fun () ->
            let threads =
              List.init conc (fun id -> Thread.create (worker id) ())
            in
            List.iter Thread.join threads)
      in
      let hits = stat (Service.Daemon.stats daemon) "cache_hits" -. hits0 in
      let rps = float_of_int n_requests /. Float.max 1e-9 wall_s in
      (conc, wall_s, rps, hits, Atomic.get failures)
    in
    List.map run_level [ 1; 4 ]
  in
  List.iter
    (fun (conc, wall_s, rps, hits, failures) ->
      match json with
      | None -> ()
      | Some j ->
          Json_out.add j ~experiment:"service"
            ~family:(Printf.sprintf "batch_c%d" conc)
            ~wall_s ~jobs:conc
            ~extras:
              [
                ("rps", rps);
                ("requests", float_of_int n_requests);
                ("cache_hits", hits);
                ("failures", float_of_int failures);
              ]
            ())
    levels;
  Format.printf "%s@."
    (Harness.Table.render
       ~title:"daemon batch throughput (shared daemon: c1 cold, c4 warm)"
       ~headers:[ "clients"; "requests"; "wall (s)"; "rps"; "cache hits"; "failures" ]
       (List.map
          (fun (conc, wall_s, rps, hits, failures) ->
            [
              string_of_int conc;
              string_of_int n_requests;
              Printf.sprintf "%.3f" wall_s;
              Printf.sprintf "%.1f" rps;
              Printf.sprintf "%.0f" hits;
              string_of_int failures;
            ])
          levels))

let gauss ?(quick = false) ?json () =
  header
    "E9: in-search Gauss-Jordan parity reasoning on Tseitin parity formulas \
     (gauss off / on / XNF rows only)";
  let sizes = if quick then [ 12; 16 ] else [ 16; 24; 32 ] in
  let arms = [ "off"; "on"; "xnf" ] in
  let rows = ref [] in
  List.iter
    (fun vertices ->
      List.iter
        (fun satisfiable ->
          let rng = Random.State.make [| 0x9a55 + vertices |] in
          let f, xors =
            Problems.Generators.parity_chain_xors ~vertices ~satisfiable ~rng
          in
          let nvars = Cnf.Formula.nvars f in
          let label =
            Printf.sprintf "parity_v%d_%s" vertices
              (if satisfiable then "sat" else "unsat")
          in
          List.iter
            (fun arm ->
              let s = Sat.Solver.create ~nvars () in
              let ok =
                match arm with
                | "off" -> Sat.Solver.add_formula s f
                | "on" ->
                    Sat.Solver.add_formula s f
                    && List.for_all
                         (fun (vars, parity) ->
                           Sat.Solver.add_xor s ~vars ~parity)
                         xors
                | _ ->
                    (* XNF-style: the parity rows alone carry the instance;
                       the clausal encoding is dropped entirely *)
                    List.for_all
                      (fun (vars, parity) -> Sat.Solver.add_xor s ~vars ~parity)
                      xors
              in
              let result, wall_s =
                Harness.Timing.time (fun () ->
                    if ok then Sat.Solver.solve ~conflict_budget:200_000 s
                    else Sat.Types.Unsat)
              in
              (* a model found without the clauses must still satisfy them *)
              let verdict =
                match result with
                | Sat.Types.Sat model ->
                    if Cnf.Formula.eval (fun v -> model.(v)) f then 1. else nan
                | Sat.Types.Unsat -> 0.
                | Sat.Types.Undecided -> -1.
              in
              let st = Sat.Solver.stats s in
              rows :=
                (label, arm, verdict, st, wall_s) :: !rows;
              match json with
              | None -> ()
              | Some j ->
                  Json_out.add j ~experiment:"gauss"
                    ~family:(label ^ "_" ^ arm) ~wall_s ~jobs:1
                    ~extras:
                      [
                        ("verdict", verdict);
                        ("conflicts", float_of_int st.Sat.Types.conflicts);
                        ("propagations", float_of_int st.Sat.Types.propagations);
                        ( "parity_propagations",
                          float_of_int st.Sat.Types.parity_propagations );
                        ( "parity_conflicts",
                          float_of_int st.Sat.Types.parity_conflicts );
                        ("gauss_rounds", float_of_int st.Sat.Types.gauss_rounds);
                      ]
                    ())
            arms)
        [ true; false ])
    sizes;
  Format.printf "%s@."
    (Harness.Table.render
       ~title:"in-search parity reasoning (conflict budget 200k)"
       ~headers:
         [ "instance"; "arm"; "verdict"; "conflicts"; "parity props";
           "gauss rounds"; "time(s)" ]
       (List.rev_map
          (fun (label, arm, verdict, st, wall_s) ->
            [
              label;
              arm;
              (if verdict = 1. then "SAT"
               else if verdict = 0. then "UNSAT"
               else "UNDEC");
              string_of_int st.Sat.Types.conflicts;
              string_of_int st.Sat.Types.parity_propagations;
              string_of_int st.Sat.Types.gauss_rounds;
              Printf.sprintf "%.3f" wall_s;
            ])
          !rows))
