(* SOFT core tests: grouping, crosschecking, reporting, test-case
   generation, and the end-to-end soundness properties of the pipeline —
   most importantly: no false positives (an agent crosschecked against
   itself yields zero inconsistencies), and every witness genuinely
   satisfies both agents' conditions. *)

open Smt
module Trace = Openflow.Trace
module Engine = Symexec.Engine

let c16 v = Expr.const ~width:16 (Int64.of_int v)

let result trace = { Trace.trace; crash = None }

(* --- grouping -------------------------------------------------------- *)

let test_grouping_collapses () =
  let x = Expr.var ~width:16 "gx" in
  let paths =
    [
      (result [ "A" ], Expr.eq x (c16 1));
      (result [ "B" ], Expr.eq x (c16 2));
      (result [ "A" ], Expr.eq x (c16 3));
      (result [ "A" ], Expr.eq x (c16 4));
    ]
  in
  let groups = Soft.Grouping.group_paths paths in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let ga = List.find (fun g -> g.Soft.Grouping.g_key = Trace.result_key (result [ "A" ])) groups in
  Alcotest.(check int) "A groups 3 paths" 3 ga.Soft.Grouping.g_path_count;
  (* the group condition is the disjunction: each member value satisfies it *)
  List.iter
    (fun v ->
      let m = Model.of_bindings [ (Expr.make_var "gx" 16, v) ] in
      Alcotest.(check bool)
        (Printf.sprintf "x=%Ld in group A" v)
        true
        (Model.eval_bool m ga.Soft.Grouping.g_cond))
    [ 1L; 3L; 4L ];
  let m2 = Model.of_bindings [ (Expr.make_var "gx" 16, 2L) ] in
  Alcotest.(check bool) "x=2 not in group A" false (Model.eval_bool m2 ga.Soft.Grouping.g_cond)

let test_grouping_crash_distinct () =
  let x = Expr.var ~width:16 "gy" in
  let paths =
    [
      (result [ "A" ], Expr.eq x (c16 1));
      ({ Trace.trace = [ "A" ]; crash = Some "boom" }, Expr.eq x (c16 2));
    ]
  in
  Alcotest.(check int) "crash separates results" 2
    (List.length (Soft.Grouping.group_paths paths))

(* --- crosschecking: the Figure 1/2 example --------------------------- *)

let fig1_agent1 env p =
  if Engine.branch_eq env p 0xfffdL then Engine.emit env "CTRL"
  else if Engine.branch env (Expr.ult p (c16 25)) then Engine.emit env "FWD"
  else Engine.emit env "ERR"

let fig1_agent2 env p =
  if Engine.branch env (Expr.ult p (c16 25)) then Engine.emit env "FWD"
  else Engine.emit env "ERR"

let run_toy name program =
  let r = Engine.run program in
  let paths =
    List.map
      (fun (pr : string Engine.path_result) ->
        ({ Trace.trace = pr.Engine.events; crash = None }, pr.Engine.path_cond))
      r.Engine.results
  in
  {
    Soft.Grouping.gr_agent = name;
    gr_test = "fig1";
    gr_groups = Soft.Grouping.group_paths paths;
    gr_group_time = 0.0;
  }

let test_figure1_example () =
  let p = Expr.var ~width:16 "fig1.p" in
  let a = run_toy "agent1" (fun env -> fig1_agent1 env p) in
  let b = run_toy "agent2" (fun env -> fig1_agent2 env p) in
  Alcotest.(check int) "agent1 results" 3 (List.length a.Soft.Grouping.gr_groups);
  Alcotest.(check int) "agent2 results" 2 (List.length b.Soft.Grouping.gr_groups);
  let outcome = Soft.Crosscheck.check a b in
  (* exactly one non-empty intersection of differing results: p = OFPP_CTRL
     where agent1 says CTRL and agent2 says ERR *)
  Alcotest.(check int) "one inconsistency" 1 (Soft.Crosscheck.count outcome);
  let inc = List.hd outcome.Soft.Crosscheck.o_inconsistencies in
  Alcotest.(check int64) "witness is OFPP_CONTROLLER" 0xfffdL
    (Model.get inc.Soft.Crosscheck.i_witness (Expr.make_var "fig1.p" 16));
  Alcotest.(check bool) "witness satisfies the conjunction" true
    (Soft.Testcase.witness_consistent inc)

let test_self_check_no_false_positives () =
  let p = Expr.var ~width:16 "fig1.p" in
  let a = run_toy "agent1" (fun env -> fig1_agent1 env p) in
  let a' = run_toy "agent1-again" (fun env -> fig1_agent1 env p) in
  let outcome = Soft.Crosscheck.check a a' in
  Alcotest.(check int) "agent vs itself: no inconsistencies" 0
    (Soft.Crosscheck.count outcome)

let test_check_requires_same_test () =
  let p = Expr.var ~width:16 "fig1.p" in
  let a = run_toy "agent1" (fun env -> fig1_agent1 env p) in
  let b = { (run_toy "agent2" (fun env -> fig1_agent2 env p)) with Soft.Grouping.gr_test = "other" } in
  Alcotest.check_raises "different tests rejected"
    (Invalid_argument "Crosscheck.check: runs of different tests") (fun () ->
      ignore (Soft.Crosscheck.check a b))

let test_split_crosscheck_equivalent () =
  (* chunked checking (the paper's proposed remedy for solver blow-ups)
     must find exactly the same inconsistent result pairs *)
  let spec = Harness.Test_spec.packet_out () in
  let a =
    Soft.Grouping.of_run
      (Harness.Runner.execute ~max_paths:400 Switches.Reference_switch.agent spec)
  in
  let b =
    Soft.Grouping.of_run
      (Harness.Runner.execute ~max_paths:400 Switches.Open_vswitch.agent spec)
  in
  let keys outcome =
    List.sort_uniq compare
      (List.map
         (fun (i : Soft.Crosscheck.inconsistency) ->
           (Trace.result_key i.Soft.Crosscheck.i_result_a, Trace.result_key i.i_result_b))
         outcome.Soft.Crosscheck.o_inconsistencies)
  in
  let whole = Soft.Crosscheck.check a b in
  let split = Soft.Crosscheck.check ~split:5 a b in
  Alcotest.(check int) "same number of inconsistent pairs" (Soft.Crosscheck.count whole)
    (Soft.Crosscheck.count split);
  Alcotest.(check bool) "same pairs" true (keys whole = keys split)

let test_crosscheck_symmetric () =
  (* swapping the agents mirrors the inconsistent pairs exactly *)
  let spec = Harness.Test_spec.short_symb () in
  let a =
    Soft.Grouping.of_run
      (Harness.Runner.execute ~max_paths:100 Switches.Reference_switch.agent spec)
  in
  let b =
    Soft.Grouping.of_run
      (Harness.Runner.execute ~max_paths:100 Switches.Open_vswitch.agent spec)
  in
  let keys outcome =
    List.sort_uniq compare
      (List.map
         (fun (i : Soft.Crosscheck.inconsistency) ->
           (Trace.result_key i.Soft.Crosscheck.i_result_a, Trace.result_key i.i_result_b))
         outcome.Soft.Crosscheck.o_inconsistencies)
  in
  let ab = keys (Soft.Crosscheck.check a b) in
  let ba = List.map (fun (x, y) -> (y, x)) (keys (Soft.Crosscheck.check b a)) in
  Alcotest.(check bool) "mirrored pairs" true (List.sort compare ba = ab)

let test_group_condition_entails_members () =
  (* every member path condition implies its group's disjunction *)
  let spec = Harness.Test_spec.stats_request () in
  let g =
    Soft.Grouping.of_run
      (Harness.Runner.execute ~max_paths:100 Switches.Reference_switch.agent spec)
  in
  List.iter
    (fun (grp : Soft.Grouping.group) ->
      List.iter
        (fun member ->
          Alcotest.(check bool) "member implies group" false
            (Smt.Solver.is_sat [ member; Smt.Expr.not_ grp.Soft.Grouping.g_cond ]))
        grp.Soft.Grouping.g_member_conds)
    g.Soft.Grouping.gr_groups

(* --- classification ---------------------------------------------------- *)

let mk_inc a b =
  {
    Soft.Crosscheck.i_result_a = a;
    i_result_b = b;
    i_witness = Model.empty ();
    i_cond = Expr.tru;
    i_paths_a = 1;
    i_paths_b = 1;
  }

let test_classification () =
  let open Soft.Report in
  Alcotest.(check string) "crash class" (class_name Agent_crash)
    (class_name
       (classify (mk_inc { Trace.trace = []; crash = Some "x" } (result [ "of:barrier_reply" ]))));
  Alcotest.(check string) "missing error" (class_name Missing_error)
    (class_name (classify (mk_inc (result [ "of:error(BAD_REQUEST,6)" ]) (result []))));
  Alcotest.(check string) "different errors" (class_name Different_errors)
    (class_name
       (classify
          (mk_inc (result [ "of:error(BAD_REQUEST,6)" ]) (result [ "of:error(BAD_ACTION,1)" ]))));
  Alcotest.(check string) "rejected vs applied" (class_name Rejected_vs_applied)
    (class_name
       (classify (mk_inc (result [ "of:error(BAD_ACTION,4)" ]) (result [ "dp:tx(#2,p)" ]))));
  Alcotest.(check string) "probe difference" (class_name State_difference)
    (class_name (classify (mk_inc (result [ "probe1:fwd(#2,p)" ]) (result [ "probe1:dropped" ]))))

let test_summarize_dedups () =
  let incs =
    [
      mk_inc (result [ "of:error(BAD_REQUEST,6)" ]) (result []);
      mk_inc (result [ "of:error(BAD_REQUEST,8)" ]) (result []);
      mk_inc { Trace.trace = []; crash = Some "x" } (result [ "of:barrier_reply" ]);
    ]
  in
  let outcome =
    {
      Soft.Crosscheck.o_agent_a = "a";
      o_agent_b = "b";
      o_test = "t";
      o_inconsistencies = incs;
      o_pairs_checked = 3;
      o_pairs_equal = 0;
      o_pairs_undecided = [];
      o_pair_faults = 0;
      o_check_time = 0.0;
    }
  in
  let summary = Soft.Report.summarize outcome in
  Alcotest.(check int) "two classes" 2 (List.length summary);
  Alcotest.(check int) "missing-error counted twice" 2
    (List.hd summary).Soft.Report.s_count

(* --- end to end --------------------------------------------------------- *)

let test_e2e_packet_out_findings () =
  let spec = Harness.Test_spec.packet_out () in
  let c =
    Soft.Pipeline.compare_agents ~max_paths:800 Switches.Reference_switch.agent
      Switches.Open_vswitch.agent spec
  in
  Alcotest.(check bool) "inconsistencies found" true (Soft.Pipeline.inconsistency_count c > 0);
  let classes = List.map (fun s -> s.Soft.Report.s_class) (Soft.Pipeline.summaries c) in
  Alcotest.(check bool) "crash class present" true
    (List.mem Soft.Report.Agent_crash classes);
  (* every witness satisfies its conjunction *)
  List.iter
    (fun inc ->
      Alcotest.(check bool) "witness consistent" true (Soft.Testcase.witness_consistent inc))
    c.Soft.Pipeline.c_outcome.Soft.Crosscheck.o_inconsistencies;
  (* every reproducer's control messages have a coherent OpenFlow header;
     the body may be deliberately malformed — that is the whole point of a
     bug-triggering input — in which case strict parsing refuses it *)
  List.iter
    (fun tc ->
      List.iter
        (function
          | Soft.Testcase.C_message { wire; _ } ->
            Alcotest.(check int) "version byte" Openflow.Constants.version
              (Char.code wire.[0]);
            let claimed = (Char.code wire.[2] lsl 8) lor Char.code wire.[3] in
            Alcotest.(check int) "length header matches byte count" claimed
              (String.length wire)
          | Soft.Testcase.C_probe _ | Soft.Testcase.C_advance_time _ -> ())
        tc.Soft.Testcase.tc_inputs)
    (Soft.Pipeline.test_cases c)

let test_e2e_self_comparison_clean () =
  (* the fundamental no-false-positive property on a real test *)
  let spec = Harness.Test_spec.set_config () in
  let c =
    Soft.Pipeline.compare_agents ~max_paths:800 Switches.Reference_switch.agent
      Switches.Reference_switch.agent spec
  in
  Alcotest.(check int) "reference vs reference: zero inconsistencies" 0
    (Soft.Pipeline.inconsistency_count c)

let test_e2e_set_config_identical () =
  (* the paper's Table 3 reports 0 inconsistencies for Set Config between
     reference and ovs *)
  let spec = Harness.Test_spec.set_config () in
  let c =
    Soft.Pipeline.compare_agents ~max_paths:2000 Switches.Reference_switch.agent
      Switches.Open_vswitch.agent spec
  in
  Alcotest.(check int) "set config: no inconsistencies" 0
    (Soft.Pipeline.inconsistency_count c)

let test_e2e_concrete_single_path () =
  let spec = Harness.Test_spec.concrete () in
  let run = Harness.Runner.execute ~max_paths:10 Switches.Reference_switch.agent spec in
  Alcotest.(check int) "concrete test has exactly one path" 1
    (List.length run.Harness.Runner.run_paths)

let suite =
  [
    Alcotest.test_case "grouping collapses" `Quick test_grouping_collapses;
    Alcotest.test_case "crash results are distinct" `Quick test_grouping_crash_distinct;
    Alcotest.test_case "figure 1 example" `Quick test_figure1_example;
    Alcotest.test_case "no false positives (toy)" `Quick test_self_check_no_false_positives;
    Alcotest.test_case "test mismatch rejected" `Quick test_check_requires_same_test;
    Alcotest.test_case "split crosscheck equivalent" `Slow test_split_crosscheck_equivalent;
    Alcotest.test_case "crosscheck symmetric" `Slow test_crosscheck_symmetric;
    Alcotest.test_case "group condition entails members" `Quick
      test_group_condition_entails_members;
    Alcotest.test_case "classification" `Quick test_classification;
    Alcotest.test_case "summaries dedup" `Quick test_summarize_dedups;
    Alcotest.test_case "e2e: packet out findings" `Slow test_e2e_packet_out_findings;
    Alcotest.test_case "e2e: self comparison clean" `Slow test_e2e_self_comparison_clean;
    Alcotest.test_case "e2e: set config identical" `Slow test_e2e_set_config_identical;
    Alcotest.test_case "e2e: concrete single path" `Quick test_e2e_concrete_single_path;
  ]
