type gauss_mode = Gauss_auto | Gauss_on | Gauss_off

type t = {
  xl_sample_bits : int;
  xl_expand_bits : int;
  xl_degree : int;
  karnaugh_vars : int;
  xor_cut_length : int;
  clause_cut_positive : int;
  sat_budget_start : int;
  sat_budget_max : int;
  sat_budget_step : int;
  max_iterations : int;
  stop_on_solution : bool;
  facts_from_monomial_aux : bool;
  stage_time_s : float;
  sat_probe_vars : int;
  seed : int;
  audit_trail : bool;
  jobs : int;
  incremental_sat : bool;
  timeout_s : float option;
  max_memory_monomials : int option;
  max_total_conflicts : int option;
  portfolio : int;
  gauss : gauss_mode;
}

let paper =
  {
    xl_sample_bits = 30;
    xl_expand_bits = 4;
    xl_degree = 1;
    karnaugh_vars = 8;
    xor_cut_length = 5;
    clause_cut_positive = 5;
    sat_budget_start = 10_000;
    sat_budget_max = 100_000;
    sat_budget_step = 10_000;
    max_iterations = 100;
    stop_on_solution = true;
    facts_from_monomial_aux = false;
    stage_time_s = 200.0;
    sat_probe_vars = 0;
    seed = 0;
    audit_trail = false;
    jobs = 1;
    incremental_sat = true;
    timeout_s = None;
    max_memory_monomials = None;
    max_total_conflicts = None;
    portfolio = 1;
    gauss = Gauss_auto;
  }

(* Laptop-scale defaults: same semantics, smaller linearised systems and
   budgets so the full benchmark harness completes in minutes. *)
let default =
  {
    paper with
    xl_sample_bits = 20;
    xl_expand_bits = 2;
    sat_budget_start = 2_000;
    sat_budget_max = 20_000;
    sat_budget_step = 2_000;
    max_iterations = 20;
    stage_time_s = 10.0;
  }
