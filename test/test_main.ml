let () =
  Alcotest.run "bosphorus"
    (Test_runtime.suite @ Test_gf2.suite @ Test_anf.suite @ Test_cnf.suite @ Test_minimize.suite
   @ Test_sat.suite @ Test_parity.suite @ Test_preprocess.suite @ Test_bosphorus.suite @ Test_ciphers.suite @ Test_problems.suite @ Test_audit.suite @ Test_util.suite @ Test_zdd.suite
   @ Test_budget.suite @ Test_differential.suite @ Test_portfolio.suite
   @ Test_obs.suite @ Test_check.suite @ Test_service.suite @ Test_linearize.suite @ Test_anf_to_cnf.suite)
