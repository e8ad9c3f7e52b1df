type profile = Minisat | Lingeling | Cms5

let all = [ Minisat; Lingeling; Cms5 ]

let name = function
  | Minisat -> "minisat"
  | Lingeling -> "lingeling"
  | Cms5 -> "cms5"

let of_name = function
  | "minisat" -> Some Minisat
  | "lingeling" -> Some Lingeling
  | "cms5" -> Some Cms5
  | _ -> None

type output = { result : Types.result; stats : Types.stats option }

let minisat_config = Solver.default_config

(* A stronger search configuration: slower VSIDS decay (longer memory),
   geometric restarts and more learnt-clause retention — a stand-in for
   Lingeling's tuning. *)
let lingeling_config =
  {
    Solver.var_decay = 0.90;
    clause_decay = 0.999;
    restart_first = 128;
    use_luby = false;
    restart_inc = 1.5;
    learntsize_factor = 0.5;
    learntsize_inc = 1.3;
    minimise_learnts = true;
  }

let cms5_config = { minisat_config with Solver.var_decay = 0.92 }

let config = function
  | Minisat -> minisat_config
  | Lingeling -> lingeling_config
  | Cms5 -> cms5_config

let run_solver ?conflict_budget ?time_budget_s ?(xors = []) config f =
  let s = Solver.create ~config ~nvars:(Cnf.Formula.nvars f) () in
  let ok =
    Solver.add_formula s f
    && List.for_all
         (fun x -> Solver.add_xor s ~vars:x.Xor_module.vars ~parity:x.Xor_module.parity)
         xors
  in
  if not ok then { result = Types.Unsat; stats = Some (Solver.stats s) }
  else
    let result = Solver.solve ?conflict_budget ?time_budget_s s in
    { result; stats = Some (Solver.stats s) }

let with_preprocessing ?conflict_budget ?time_budget_s ~bve config f =
  match Cnf.Simp.simplify ~bve f with
  | Cnf.Simp.Unsat -> { result = Types.Unsat; stats = None }
  | Cnf.Simp.Simplified simp -> (
      let out = run_solver ?conflict_budget ?time_budget_s config simp.Cnf.Simp.formula in
      match out.result with
      | Types.Sat model ->
          (* model is over the simplified formula's variables (a subset of
             the original numbering); reconstruct the rest *)
          { out with result = Types.Sat (simp.Cnf.Simp.reconstruct model) }
      | Types.Unsat | Types.Undecided -> out)

let cms5_solve ?conflict_budget ?time_budget_s f =
  (* recover XOR constraints and hand the rows to the solver's native
     in-search XOR engine, whose level-0 Gauss-Jordan pass at solve entry
     turns implied units into root assignments and 1 = 0 into UNSAT *)
  run_solver ?conflict_budget ?time_budget_s ~xors:(Xor_module.recover f) cms5_config f

let solve ?conflict_budget ?time_budget_s profile f =
  match profile with
  | Minisat -> run_solver ?conflict_budget ?time_budget_s minisat_config f
  | Lingeling -> with_preprocessing ?conflict_budget ?time_budget_s ~bve:true lingeling_config f
  | Cms5 -> cms5_solve ?conflict_budget ?time_budget_s f
