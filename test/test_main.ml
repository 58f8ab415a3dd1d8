(* Aggregated test runner: `dune runtest` executes every suite.

   Setting SOFT_CERTIFY=1 runs the whole suite with solver certification
   on — every Unsat the frontend publishes is then backed by a checked
   DRUP proof.  CI exercises this mode; it must change no verdicts. *)

let () =
  (match Sys.getenv_opt "SOFT_CERTIFY" with
  | Some ("1" | "true" | "yes") -> Smt.Solver.set_certify true
  | _ -> ());
  Alcotest.run "soft"
    [
      ("expr", Test_expr.suite);
      ("solver", Test_solver.suite);
      ("serial", Test_serial.suite);
      ("wire", Test_wire.suite);
      ("packet", Test_packet.suite);
      ("engine", Test_engine.suite);
      ("match_sem", Test_match_sem.suite);
      ("flow_table", Test_flow_table.suite);
      ("sym_msg", Test_sym_msg.suite);
      ("agents", Test_agents.suite);
      ("normalize", Test_normalize.suite);
      ("soft", Test_soft.suite);
      ("budget", Test_budget.suite);
      ("time", Test_time.suite);
      ("failure_injection", Test_failure_injection.suite);
      ("partition", Test_partition.suite);
      ("proof", Test_proof.suite);
      ("validate", Test_validate.suite);
      ("chaos", Test_chaos.suite);
      ("parallel", Test_parallel.suite);
      ("incremental", Test_incremental.suite);
      ("supervise", Test_supervise.suite);
      ("explore", Test_explore.suite);
    ]
