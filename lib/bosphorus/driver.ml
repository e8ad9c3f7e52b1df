module P = Anf.Poly
module S = Anf.System

type status =
  | Solved_sat of (int * bool) list
  | Solved_unsat
  | Processed
  | Degraded

type round_info = {
  round_encoded : int;
  round_reused : int;
  round_delta_clauses : int;
  round_propagations : int;
  round_conflicts : int;
}

type outcome = {
  status : status;
  anf : P.t list;
  cnf : Cnf.Formula.t;
  facts : Facts.t;
  iterations : int;
  sat_calls : int;
  sat_rounds : round_info list;
  trail : Audit_trail.t option;
  budget_report : Harness.Budget.report option;
}

type stages = {
  use_xl : bool;
  use_elimlin : bool;
  use_sat : bool;
  use_groebner : bool;
}

let all_stages = { use_xl = true; use_elimlin = true; use_sat = true; use_groebner = false }

module PSet = Set.Make (P)

let nvars_of polys = List.fold_left (fun acc p -> max acc (P.max_var p + 1)) 0 polys

module Session = struct
  (* The SAT stage's state, which lives across the rounds of a run and,
     pinned in a session, across runs: the incremental conversion state,
     the warm solver, the fact-extraction high-water marks that keep
     already harvested units/binaries from being re-extracted, and the
     variable range the conversion was fixed to.  [fed] and [polys] count
     the clauses fed to this solver and the polynomials encoded since the
     state was built — exactly what a compatible next run starts out
     knowing. *)
  type state = {
    inc : Anf_to_cnf.incremental;
    mutable solver : Sat.Solver.t;
    mutable units_hwm : int;
    mutable bins_hwm : int;
    mutable xors_hwm : int;
        (* XOR rows of the cumulative conversion already fed to the
           solver's parity engine *)
    anf_nvars : int;
    mutable fed : int;
    mutable polys : int;
  }

  type t = {
    mutable st : state option;
    mutable inputs : PSet.t;  (** the pinning run's input, as a set *)
    mutable cfg : Config.t option;
    mutable n_runs : int;
    mutable n_resets : int;
  }

  let create () =
    { st = None; inputs = PSet.empty; cfg = None; n_runs = 0; n_resets = 0 }

  let runs t = t.n_runs
  let resets t = t.n_resets
  let carried_clauses t = match t.st with Some st -> st.fed | None -> 0
  let carried_polys t = match t.st with Some st -> st.polys | None -> 0

  (* Reuse is sound iff every clause already in the pinned solver is a
     GF(2) consequence of the *new* input.  Pinned clauses encode
     polynomials that are consequences of the previous input (the
     incremental converter's own invariant), so input-superset is the
     whole test; config equality keeps the encoding parameters (and the
     audit-trail/portfolio gating) identical, and the variable range
     must fit the conversion state fixed at pinning time. *)
  let compatible t ~config polys =
    config.Config.incremental_sat
    && (match t.cfg with Some c -> c = config | None -> false)
    &&
    match t.st with
    | None -> false
    | Some st ->
        nvars_of polys <= st.anf_nvars && PSet.subset t.inputs (PSet.of_list polys)

  (* A run owns the state while it runs: it takes the state out of the
     session when it starts, counting a reset if a pin it cannot reuse is
     discarded, and puts it back with [pin] when it ends, so a run that
     raises leaves nothing pinned. *)
  let take t ~config polys =
    let reuse = compatible t ~config polys in
    t.n_runs <- t.n_runs + 1;
    if (not reuse) && Option.is_some t.st then t.n_resets <- t.n_resets + 1;
    let st = if reuse then t.st else None in
    t.st <- None;
    t.inputs <- PSet.empty;
    t.cfg <- None;
    st

  let pin t ~config polys st =
    t.st <- Some st;
    t.inputs <- PSet.of_list polys;
    t.cfg <- Some config
end

(* Extract ANF facts from the SAT solver's learnt units and binaries
   (Section II-D).  Units on ANF variables give value assignments; pairs of
   complementary binary clauses give equivalences.  Units on monomial
   auxiliary variables are harvested only under the extension flag.

   [units] and [candidates] are the units/binaries to harvest — with a
   persistent solver these are only the ones learnt since the previous
   round (high-water marks) — while [binaries] is the full binary log, so
   a new binary still pairs with a complement learnt rounds ago.  The
   equivalence polynomial is symmetric in the pair, so harvesting both
   orientations is harmless (facts are deduplicated downstream). *)
let sat_facts ~config ~anf_nvars ~mono_of_var ~units ~binaries ~candidates =
  let unit_facts =
    List.filter_map
      (fun l ->
        let v = Cnf.Lit.var l in
        let value = not (Cnf.Lit.negated l) in
        if v < anf_nvars then Some (P.add (P.var v) (P.constant value))
        else if config.Config.facts_from_monomial_aux then
          match Hashtbl.find_opt mono_of_var v with
          | Some m ->
              let mp = P.of_monomials [ m ] in
              Some (if value then P.add mp P.one else mp)
          | None -> None
        else None)
      units
  in
  (* complementary binary pairs over ANF variables yield equivalences *)
  let module Pairs = Set.Make (struct
    type t = int * int

    let compare = Stdlib.compare
  end) in
  let key a b =
    let ia = Cnf.Lit.to_index a and ib = Cnf.Lit.to_index b in
    (min ia ib, max ia ib)
  in
  let present =
    List.fold_left (fun s (a, b) -> Pairs.add (key a b) s) Pairs.empty binaries
  in
  let equiv_facts =
    List.filter_map
      (fun (a, b) ->
        let va = Cnf.Lit.var a and vb = Cnf.Lit.var b in
        if va < anf_nvars && vb < anf_nvars && va <> vb then
          let comp = key (Cnf.Lit.neg a) (Cnf.Lit.neg b) in
          if Pairs.mem comp present then
            (* (a|b) and (~a|~b): a = ~b.  In ANF: va + vb + c where
               c = 1 iff the literals have equal signs *)
            let c = Cnf.Lit.negated a = Cnf.Lit.negated b in
            Some (P.add (P.add (P.var va) (P.var vb)) (P.constant c))
          else None
        else None)
      candidates
  in
  unit_facts @ equiv_facts

(* Failed-literal probing (extension, Config.sat_probe_vars): assume each
   ANF variable both ways; a conflict forces the variable, and literals
   implied under both assumptions with opposite signs are equivalences. *)
let probe_facts ~config ~anf_nvars solver =
  let limit = min anf_nvars config.Config.sat_probe_vars in
  let acc = ref [] in
  for v = 0 to limit - 1 do
    match Sat.Solver.probe solver (Cnf.Lit.pos v) with
    | `Conflict -> acc := P.var v :: !acc
    | `Unusable -> ()
    | `Implied pos_implied -> (
        match Sat.Solver.probe solver (Cnf.Lit.neg_of v) with
        | `Conflict -> acc := P.add (P.var v) P.one :: !acc
        | `Unusable -> ()
        | `Implied neg_implied ->
            let neg_set = Hashtbl.create 16 in
            List.iter
              (fun l -> Hashtbl.replace neg_set (Cnf.Lit.to_index l) ())
              neg_implied;
            List.iter
              (fun l ->
                let w = Cnf.Lit.var l in
                if
                  w < anf_nvars
                  && w <> v
                  && Hashtbl.mem neg_set (Cnf.Lit.to_index (Cnf.Lit.neg l))
                then begin
                  (* v = 1 forces l and v = 0 forces ~l: v and l's variable
                     are equal (same signs) or complementary *)
                  let c = Cnf.Lit.negated l in
                  acc := P.add (P.add (P.var v) (P.var w)) (P.constant c) :: !acc
                end)
              pos_implied)
  done;
  !acc

let run_with_stages ?(config = Config.default) ?budget ?session ~stages polys =
  let rng = Random.State.make [| config.Config.seed |] in
  (* One budget governs the whole run: wall clock, monomial/clause gauge
     and cumulative solver conflicts.  It is created even when unlimited
     so that fault injection can trip any layer deterministically.  A
     caller-supplied budget (the service daemon, which needs the handle
     for external cancellation) replaces it wholesale — config's ceiling
     fields are then the caller's business. *)
  (* The learning loop gets the configured wall budget minus the
     finalization reserve ({!Harness.Budget.loop_timeout_s}). *)
  let budget =
    match budget with
    | Some b -> b
    | None ->
        Harness.Budget.create
          ?timeout_s:(Option.map Harness.Budget.loop_timeout_s config.Config.timeout_s)
          ?max_memory_monomials:config.Config.max_memory_monomials
          ?max_total_conflicts:config.Config.max_total_conflicts ()
  in
  let orig_nvars = nvars_of polys in
  (* Pinned-session reuse is decided once, up front, against the same
     compatibility rule the daemon consults; an incompatible pin is
     discarded here and the session re-pinned at the end of the run. *)
  let sat_state =
    ref (match session with Some s -> Session.take s ~config polys | None -> None)
  in
  let master = S.create polys in
  let trail =
    if config.Config.audit_trail then Some (Audit_trail.create ~input:polys)
    else None
  in
  let state = Anf_prop.create () in
  let facts = Facts.create () in
  let sat_calls = ref 0 in
  let sat_budget = ref config.Config.sat_budget_start in
  let unsat = ref false in
  let solution = ref None in
  let iterations = ref 0 in
  let propagate_and_record () =
    Obs.Trace.with_span ~name:"driver.propagate" @@ fun () ->
    (match Anf_prop.propagate state master with
    | `Contradiction -> unsat := true
    | `Fixedpoint -> ());
    ignore (Facts.add_all facts Facts.Propagation (Anf_prop.fact_polys state))
  in
  (* The linear polynomials of the master span a subspace of dimension at
     most nvars+1; XL/ElimLin keep re-deriving dense members of it, so
     periodically replace them with their reduced-row-echelon basis.  This
     keeps the master (and hence the emitted CNF) small without losing any
     linear information. *)
  let compress_linear () =
    Obs.Trace.with_span ~name:"driver.compress_linear" @@ fun () ->
    let linear = ref [] in
    S.iter master (fun id p -> if P.is_linear p then linear := (id, p) :: !linear);
    let polys = List.map snd !linear in
    if List.length polys > nvars_of polys + 8 then begin
      let basis = (Linearize.reduce polys).Linearize.rows in
      List.iter (fun (id, _) -> S.remove master id) !linear;
      List.iter (fun p -> ignore (S.add master p)) basis;
      propagate_and_record ()
    end
  in
  (* add a batch of candidate facts to the master; returns how many were new *)
  let add_facts origin candidate_facts =
    Obs.Trace.with_span ~name:"driver.absorb_facts"
      ~args:
        (if Obs.Trace.enabled () then [ ("origin", Facts.origin_name origin) ]
         else [])
    @@ fun () ->
    let added = ref 0 in
    List.iter
      (fun p ->
        let q = Anf_prop.normalise state p in
        if (not (P.is_zero q)) && not (S.mem master q) then begin
          ignore (S.add master q);
          ignore (Facts.add facts origin q);
          incr added
        end)
      candidate_facts;
    (* After a trip the batch's facts are kept (each is sound on its own)
       but the closing propagation pass is skipped: it can cost a large
       fraction of a second on a dense master, and the budget has already
       expired.  Propagation only rewrites the master into an equivalent
       form, so skipping it loses derived facts, never soundness. *)
    if !added > 0 && Harness.Budget.tripped budget = None then propagate_and_record ();
    !added
  in
  (* reconstruct a full assignment for the original variables from a model
     of the current master's CNF *)
  let reconstruct_solution model =
    List.init orig_nvars (fun x ->
        match Anf_prop.value_of state x with
        | Some v -> (x, v)
        | None ->
            let root, parity = Anf_prop.repr_of state x in
            let base = if root < Array.length model then model.(root) else false in
            (x, base <> parity))
  in
  (* Post-solve harvesting: turn the solver's result and its new
     units/binaries into ANF facts and fold them into the master. *)
  let harvest ~anf_nvars ~mono_of_var ~solver ~result ~units ~binaries ~candidates =
    let probed =
      if config.Config.sat_probe_vars > 0 && Sat.Solver.okay solver then
        probe_facts ~config ~anf_nvars solver
      else []
    in
    let learnt =
      sat_facts ~config ~anf_nvars ~mono_of_var ~units ~binaries ~candidates @ probed
    in
    match result with
    | Sat.Types.Unsat ->
        (* the learnt fact is the contradictory equation 1 = 0 *)
        unsat := true;
        add_facts Facts.Sat_solver (P.one :: learnt)
    | Sat.Types.Sat model ->
        let candidate = reconstruct_solution model in
        (* [candidate] lists variables 0..orig_nvars-1 in order *)
        let values = Array.of_list (List.map snd candidate) in
        if Anf.Eval.satisfies (Array.get values) polys then solution := Some candidate;
        add_facts Facts.Sat_solver learnt
    | Sat.Types.Undecided -> add_facts Facts.Sat_solver learnt
  in
  let sat_rounds = ref [] in
  (* Per-round solver budget: the adaptive ladder, clipped to whatever the
     global conflict ceiling still allows.  Cumulative accounting below
     charges the solver-reported conflict count — never the requested
     budget, which the solver may undershoot (or overshoot by the one
     conflict needed to notice a zero budget). *)
  let round_conflict_budget () =
    match Harness.Budget.remaining_conflicts budget with
    | None -> !sat_budget
    | Some r -> min !sat_budget r
  in
  let budget_interrupt () = Harness.Budget.poll_quiet budget ~layer:"sat" in
  (* Portfolio gate: race K diversified workers per SAT round when asked.
     Audited runs stay single-solver — a worker's proof log omits the
     clauses it imported, so it is not self-contained. *)
  let use_portfolio = config.Config.portfolio > 1 && trail = None in
  (* In-search parity gate: [Gauss_on] forces the XOR rows in, and
     [Gauss_auto] engages once a stage carries enough rows (8) to pay for
     the Gauss-Jordan bookkeeping.  Audited runs gate the same way: the
     solver logs what the parity engine derives as parity steps. *)
  let gauss_wanted n_xors =
    n_xors > 0
    &&
    match config.Config.gauss with
    | Config.Gauss_on -> true
    | Config.Gauss_off -> false
    | Config.Gauss_auto -> n_xors >= 8
  in
  (* Returns false on an immediate parity contradiction, same contract as
     [Sat.Solver.add_formula]. *)
  let feed_xors solver xors =
    List.for_all
      (fun (vars, parity) -> Sat.Solver.add_xor solver ~vars ~parity)
      xors
  in
  (* One SAT round on [solver]: either a lone solve (reference semantics)
     or a portfolio race.  Returns the result, the surviving solver (the
     race winner's — possibly a clone of [solver]), the losers' conflict
     total (the ledger charges all work, not just the winner's) and the
     exchanged units/binaries for fact harvesting. *)
  let solve_round solver =
    let conflict_budget = round_conflict_budget () in
    let time_budget_s = Harness.Budget.remaining_time_s budget in
    if not use_portfolio then
      let result =
        Sat.Solver.solve ~conflict_budget ?time_budget_s
          ~interrupt:budget_interrupt solver
      in
      (result, solver, 0, [], [])
    else begin
      let conflicts0 = (Sat.Solver.stats solver).Sat.Types.conflicts in
      let o =
        Sat.Portfolio.race ~conflict_budget ?time_budget_s
          ~interrupt:budget_interrupt
          ~workers:(Sat.Portfolio.default_workers ~k:config.Config.portfolio)
          solver
      in
      let total =
        List.fold_left
          (fun acc r ->
            acc + (r.Sat.Portfolio.rstats.Sat.Types.conflicts - conflicts0))
          0 o.Sat.Portfolio.reports
      in
      let winner_delta =
        (Sat.Solver.stats o.Sat.Portfolio.solver).Sat.Types.conflicts
        - conflicts0
      in
      ( o.Sat.Portfolio.result,
        o.Sat.Portfolio.solver,
        total - winner_delta,
        o.Sat.Portfolio.units,
        o.Sat.Portfolio.binaries )
    end
  in
  (* The SAT stage runs on one state, [!sat_state]: a conversion state
     and a solver that persist across rounds.  Each round encodes only the
     not-yet-seen polynomials, feeds the delta clauses to the running
     solver (learnt clauses, VSIDS activities and saved phases survive),
     and harvests only the facts found since the previous round, via
     high-water marks.  Fresh mode (Config.incremental_sat = false) puts a
     new state in place before each round, built as one-shot conversion
     would build it: the conversion spans the round's snapshot and the
     solver is sized to its formula.  So a fresh round encodes everything
     and every mark starts at 0. *)
  let sat_stage () =
    incr sat_calls;
    let snapshot = S.to_list master in
    if not config.Config.incremental_sat then sat_state := None;
    let st, delta =
      match !sat_state with
      | Some st -> (st, Anf_to_cnf.encode_round st.Session.inc snapshot)
      | None ->
          (* an incremental state is fixed to the input's variable range,
             which every later round and run stays within *)
          let anf_nvars =
            if config.Config.incremental_sat then orig_nvars else nvars_of snapshot
          in
          let inc = Anf_to_cnf.create_incremental ~config ~anf_nvars in
          let delta = Anf_to_cnf.encode_round inc snapshot in
          let nvars =
            if config.Config.incremental_sat then anf_nvars else Anf_to_cnf.cnf_nvars inc
          in
          let solver = Sat.Solver.create ~nvars () in
          if trail <> None then Sat.Solver.enable_proof solver;
          let st =
            { Session.inc; solver; units_hwm = 0; bins_hwm = 0; xors_hwm = 0;
              anf_nvars; fed = 0; polys = 0 }
          in
          sat_state := Some st;
          (st, delta)
    in
    let inc = st.Session.inc in
    let stats0 = Sat.Solver.stats st.Session.solver in
    let props0 = stats0.Sat.Types.propagations
    and conflicts0 = stats0.Sat.Types.conflicts in
    let clauses_ok =
      List.for_all
        (Sat.Solver.add_cnf_clause st.Session.solver)
        delta.Anf_to_cnf.delta_clauses
    in
    st.Session.fed <- st.Session.fed + List.length delta.Anf_to_cnf.delta_clauses;
    st.Session.polys <- st.Session.polys + delta.Anf_to_cnf.n_encoded;
    (* Feed the parity engine the cumulative conversion's rows beyond the
       high-water mark.  The gate tests the cumulative count, so a run
       under [Gauss_auto] that crosses the threshold mid-stream feeds every
       row recorded so far, not just this round's delta; the mark only
       advances when rows are actually fed. *)
    let clauses_ok =
      clauses_ok
      &&
      let all_xors = Anf_to_cnf.xors inc in
      let n_xors = List.length all_xors in
      (not (gauss_wanted n_xors))
      ||
      let fresh_rows = List.filteri (fun i _ -> i >= st.Session.xors_hwm) all_xors in
      st.Session.xors_hwm <- n_xors;
      feed_xors st.Session.solver fresh_rows
    in
    let added, extra =
      if not clauses_ok then begin
        ignore (add_facts Facts.Sat_solver [ P.one ]);
        unsat := true;
        (0, 0)
      end
      else begin
        let result, surv, extra, xunits, xbins = solve_round st.Session.solver in
        (* The race winner becomes the state's solver: clones extend the
           template's grow-only logs, so the high-water marks below stay
           valid across the swap. *)
        st.Session.solver <- surv;
        let units = Sat.Solver.root_units_from surv st.Session.units_hwm @ xunits in
        st.Session.units_hwm <- Sat.Solver.n_root_units surv;
        let candidates =
          Sat.Solver.learnt_binaries_from surv st.Session.bins_hwm @ xbins
        in
        st.Session.bins_hwm <- Sat.Solver.n_learnt_binaries surv;
        ( harvest ~anf_nvars:(Anf_to_cnf.anf_nvars inc)
            ~mono_of_var:(Anf_to_cnf.mono_of_var inc) ~solver:surv ~result ~units
            ~binaries:(Sat.Solver.learnt_binaries surv @ xbins) ~candidates,
          extra )
      end
    in
    let stats = Sat.Solver.stats st.Session.solver in
    let conflicts = stats.Sat.Types.conflicts - conflicts0 + extra in
    sat_rounds :=
      {
        round_encoded = delta.Anf_to_cnf.n_encoded;
        round_reused = delta.Anf_to_cnf.n_reused;
        round_delta_clauses = List.length delta.Anf_to_cnf.delta_clauses;
        round_propagations = stats.Sat.Types.propagations - props0;
        round_conflicts = conflicts;
      }
      :: !sat_rounds;
    (match trail with
    | Some tr ->
        Audit_trail.record_sat_stage tr
          {
            Audit_trail.formula = Anf_to_cnf.formula inc;
            xors =
              List.filteri (fun i _ -> i < st.Session.xors_hwm) (Anf_to_cnf.xors inc);
            proof = Sat.Solver.proof st.Session.solver;
          }
    | None -> ());
    Harness.Budget.charge_conflicts budget ~layer:"sat" conflicts;
    added
  in
  (* The monomial gauge tracks the master's total term count; XL adds its
     expansion columns on top while it runs. *)
  let update_gauge () =
    Obs.Trace.with_span ~name:"driver.update_gauge" @@ fun () ->
    let cells = ref 0 in
    S.iter master (fun _ p -> cells := !cells + P.n_terms p);
    Harness.Budget.set_cells budget !cells
  in
  propagate_and_record ();
  (* A budget trip anywhere in the loop lands here: XL/ElimLin/SAT have
     already folded their partial-but-sound results into the master and
     the fact store, so catching [Tripped] loses nothing — the run simply
     stops learning and reports [Degraded] below. *)
  (try
     while
       (not !unsat)
       && !iterations < config.Config.max_iterations
       && not (config.Config.stop_on_solution && !solution <> None)
     do
       incr iterations;
       Harness.Budget.set_iteration budget !iterations;
       (* One span per driver iteration, one per technique stage inside
          it: together with the counters bumped by [Facts.add] this is
          the per-technique who-learnt-what-when record the trace file
          exists for. *)
       Obs.Trace.with_span ~name:"driver.iteration"
         ~args:[ ("iteration", string_of_int !iterations) ]
       @@ fun () ->
       update_gauge ();
       Harness.Budget.check budget ~layer:"driver";
       let added = ref 0 in
       if stages.use_xl && not !unsat then begin
         let report =
           Obs.Trace.with_span ~name:"driver.xl" (fun () ->
               Xl.run ~config ~rng ~budget (S.to_list master))
         in
         added := !added + add_facts Facts.Xl report.Xl.facts
       end;
       if Harness.Budget.tripped budget <> None then raise Exit;
       if stages.use_elimlin && not !unsat then begin
         let report =
           Obs.Trace.with_span ~name:"driver.elimlin" (fun () ->
               Elimlin.run ~config ~rng ~budget (S.to_list master))
         in
         added := !added + add_facts Facts.Elimlin report.Elimlin.facts
       end;
       if Harness.Budget.tripped budget <> None then raise Exit;
       if stages.use_groebner && not !unsat then begin
         let report =
           Obs.Trace.with_span ~name:"driver.groebner" (fun () ->
               Groebner.run (S.to_list master))
         in
         added := !added + add_facts Facts.Groebner report.Groebner.facts
       end;
       let sat_added =
         if stages.use_sat && not !unsat then begin
           update_gauge ();
           Harness.Budget.check budget ~layer:"sat";
           Obs.Trace.with_span ~name:"driver.sat_round" sat_stage
         end
         else 0
       in
       added := !added + sat_added;
       if Harness.Budget.tripped budget <> None then raise Exit;
       if stages.use_sat && sat_added = 0 && !sat_budget < config.Config.sat_budget_max
       then sat_budget := min config.Config.sat_budget_max (!sat_budget + config.Config.sat_budget_step);
       compress_linear ();
       if !added = 0 then raise Exit
     done
   with Exit | Harness.Budget.Tripped _ -> ());
  if (not !unsat) && Harness.Budget.tripped budget = None then compress_linear ();
  (* Pin the state this run leaves behind.  Degraded runs pin too: the
     solver is still consistent after a cooperative trip, and everything
     it holds is sound for this input.  A fresh-mode state is not pinned. *)
  (match (session, !sat_state) with
  | Some s, Some st when config.Config.incremental_sat -> Session.pin s ~config polys st
  | _ -> ());
  let tripped = Harness.Budget.tripped budget in
  let status =
    if !unsat then Solved_unsat
    else
      match (!solution, tripped) with
      | Some sol, _ -> Solved_sat sol
      | None, Some _ -> Degraded
      | None, None -> Processed
  in
  let processed_anf =
    if !unsat then [ P.one ]
    else S.to_list master @ Anf_prop.fact_polys state
  in
  let cnf =
    Obs.Trace.with_span ~name:"driver.emit_cnf" (fun () ->
        (Anf_to_cnf.convert ~config ~nvars:orig_nvars processed_anf).Anf_to_cnf.formula)
  in
  let budget_report =
    if Harness.Budget.is_limited budget || tripped <> None then
      Some (Harness.Budget.report budget)
    else None
  in
  { status; anf = processed_anf; cnf; facts; iterations = !iterations;
    sat_calls = !sat_calls; sat_rounds = List.rev !sat_rounds; trail;
    budget_report }

let run ?config ?budget ?session polys =
  run_with_stages ?config ?budget ?session ~stages:all_stages polys

let run_cnf ?(config = Config.default) ?budget ?(xors = []) f =
  let conv = Cnf_to_anf.convert ~config f in
  (* Explicit x-line rows and clause-recovered rows both join the system
     as linear polynomials: the ANF side gains their GF(2) span, and the
     ANF-to-CNF encoding re-reports them as XOR rows, which is how they
     reach the solver's in-search parity engine when the gauss gate is
     open.  Recovered rows are consequences of the clause polynomials, so
     adding them is sound; [sort_uniq] drops rows present in both lists. *)
  let xor_polys =
    List.sort_uniq P.compare
      (List.map
         (fun (vars, parity) ->
           List.fold_left
             (fun acc v -> P.add acc (P.var v))
             (P.constant parity) vars)
         (xors @ conv.Cnf_to_anf.xors))
  in
  let outcome = run ~config ?budget (conv.Cnf_to_anf.polys @ xor_polys) in
  match outcome.status with
  | Solved_sat sol ->
      (* report only the original CNF variables *)
      let sol = List.filter (fun (x, _) -> x < conv.Cnf_to_anf.cnf_nvars) sol in
      { outcome with status = Solved_sat sol }
  | Solved_unsat | Processed | Degraded -> outcome

let augmented_cnf f outcome =
  let nvars = Cnf.Formula.nvars f in
  (* keep only facts expressed purely over the original CNF variables *)
  let fact_polys =
    List.filter_map
      (fun (_, p) -> if P.max_var p < nvars then Some p else None)
      (Facts.to_list outcome.facts)
  in
  let conv = Anf_to_cnf.convert ~nvars ~config:Config.default fact_polys in
  List.fold_left Cnf.Formula.add_clause f (Cnf.Formula.clauses conv.Anf_to_cnf.formula)
