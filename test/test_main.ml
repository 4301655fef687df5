(* Alcotest truncates each test name to fit the terminal width minus the
   longest suite name. A fixed width of 78 keeps the truncation points the
   names had while the longest suite name was 23 characters long, so test
   logs stay comparable by name whatever the terminal and whichever suites
   come and go. *)
let () = Unix.putenv "ALCOTEST_COLUMNS" "78"

let () =
  Alcotest.run "subscale"
    (Test_physics.suite @ Test_numerics.suite @ Test_tcad.suite @ Test_tcad_equiv.suite
     @ Test_device.suite
     @ Test_spice.suite @ Test_circuits.suite @ Test_analysis.suite @ Test_scaling.suite
     @ Test_report.suite @ Test_experiments.suite @ Test_extensions.suite @ Test_eda.suite
     @ Test_check.suite @ Test_exec.suite @ Test_audit.suite @ Test_obs.suite
     @ Test_lint.suite @ Test_serve.suite)
