(* Replay validation: every real inconsistency between the reference and
   modified switches is replay-confirmed, a fabricated inconsistency
   between identical agents is refuted, a crashing agent yields
   replay-failed — and the exit-status policy maps all of it to the
   documented codes.  Reproducer validation (the concrete bytes, decoded
   back) gives the same verdicts here and is stricter where symbolic
   trace keys differ only syntactically. *)

module Runner = Harness.Runner
module Test_spec = Harness.Test_spec
module Trace = Openflow.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ref_agent = Switches.Reference_switch.agent
let mod_agent = Switches.Modified_switch.agent

(* One shared small comparison: 60 paths find a handful of genuine
   inconsistencies between the reference and modified switches.  All
   replays below must reuse the comparison's own spec ([c_test]): a fresh
   [Test_spec.packet_out ()] would mint fresh symbolic variables the
   recorded witnesses do not bind, and pinning would constrain nothing. *)
let cmp =
  lazy
    (Soft.Pipeline.compare_agents ~max_paths:60 ~validate:true ref_agent mod_agent
       (Test_spec.packet_out ()))

let test_real_inconsistencies_confirmed () =
  let c = Lazy.force cmp in
  let n = Soft.Pipeline.inconsistency_count c in
  check_bool "the small run still finds inconsistencies" true (n > 0);
  match c.Soft.Pipeline.c_validation with
  | None -> Alcotest.fail "validation requested but absent"
  | Some v ->
    check_int "every inconsistency replay-confirmed" n v.Soft.Validate.vs_confirmed;
    check_int "none refuted" 0 v.Soft.Validate.vs_refuted;
    check_int "none failed to replay" 0 v.Soft.Validate.vs_failed;
    check_bool "summary agrees" true (Soft.Validate.all_confirmed v);
    (* each confirmed record carries both concrete traces, and they differ *)
    List.iter
      (fun (r : Soft.Validate.result) ->
        match (r.Soft.Validate.v_replay_a, r.Soft.Validate.v_replay_b) with
        | Some ta, Some tb ->
          check_bool "replayed traces diverge" true
            (Trace.result_key ta <> Trace.result_key tb)
        | _ -> Alcotest.fail "confirmed result lacks a replay trace")
      v.Soft.Validate.vs_results

let test_fabricated_inconsistency_refuted () =
  (* steal a genuine witness, then claim it distinguishes the reference
     switch from itself: replay produces identical traces and must refute *)
  let c = Lazy.force cmp in
  let inc = List.hd c.Soft.Pipeline.c_outcome.Soft.Crosscheck.o_inconsistencies in
  let r = Soft.Validate.validate_one ref_agent ref_agent c.Soft.Pipeline.c_test inc in
  (match r.Soft.Validate.v_status with
   | Soft.Validate.Refuted -> ()
   | s -> Alcotest.failf "expected Refuted, got %s" (Soft.Validate.status_name s));
  match (r.Soft.Validate.v_replay_a, r.Soft.Validate.v_replay_b) with
  | Some ta, Some tb ->
    check_bool "identical agents replay identically" true
      (Trace.result_key ta = Trace.result_key tb)
  | _ -> Alcotest.fail "refuted result lacks a replay trace"

(* --- reproducer validation: the concrete bytes, decoded back ---------- *)

let reproducers b =
  let c = Lazy.force cmp in
  Soft.Validate.validate_reproducers ref_agent b c.Soft.Pipeline.c_test
    c.Soft.Pipeline.c_outcome

let test_reproducers_confirm_real_findings () =
  (* replaying the concrete reproducer bytes confirms every finding of the
     small run, as symbolic replay does *)
  let c = Lazy.force cmp in
  let r = reproducers mod_agent in
  check_int "every reproducer confirmed" (Soft.Pipeline.inconsistency_count c)
    r.Soft.Validate.vs_confirmed;
  check_bool "no reproducer refuted or failed" true (Soft.Validate.all_confirmed r)

let test_reproducers_refute_identical_agents () =
  (* the reference against itself: every reproducer is refuted *)
  let c = Lazy.force cmp in
  let v = reproducers ref_agent in
  check_int "no reproducer confirmed" 0 v.Soft.Validate.vs_confirmed;
  check_int "every reproducer refuted" (Soft.Pipeline.inconsistency_count c)
    v.Soft.Validate.vs_refuted

(* An agent whose crash is engine-fatal (an ordinary exception would be
   isolated into a crash *trace*, which is still replayable behavior):
   the replay itself fails, and the failure is reported as such rather
   than confirming anything. *)
exception Hard_crash

let () = Symexec.Engine.register_fatal (function Hard_crash -> true | _ -> false)

module Crashing_agent = struct
  let name = "crashing"

  type state = unit

  let init () = ()
  let connection_setup _env () = raise Hard_crash
  let handle_message _env st _ = st
  let advance_time _env st ~seconds:_ = st
  let handle_packet _env st ~probe_id:_ ~in_port:_ _ = st
end

let crashing : Switches.Agent_intf.t = (module Crashing_agent)

let test_unreplayable_is_failed () =
  let c = Lazy.force cmp in
  let inc = List.hd c.Soft.Pipeline.c_outcome.Soft.Crosscheck.o_inconsistencies in
  let r = Soft.Validate.validate_one ref_agent crashing c.Soft.Pipeline.c_test inc in
  match r.Soft.Validate.v_status with
  | Soft.Validate.Replay_failed msg ->
    check_bool "names the failing agent" true
      (String.length msg > 0 && r.Soft.Validate.v_replay_b = None)
  | s -> Alcotest.failf "expected Replay_failed, got %s" (Soft.Validate.status_name s)

(* --- the exit-status policy ------------------------------------------- *)

let outcome ?(incs = []) ?(undecided = []) ?(faults = 0) () =
  {
    Soft.Crosscheck.o_agent_a = "a";
    o_agent_b = "b";
    o_test = "t";
    o_inconsistencies = incs;
    o_pairs_checked = 1;
    o_pairs_equal = 0;
    o_pairs_undecided = undecided;
    o_pair_faults = faults;
    o_check_time = 0.0;
  }

let some_inc () =
  let c = Lazy.force cmp in
  List.hd c.Soft.Pipeline.c_outcome.Soft.Crosscheck.o_inconsistencies

let summary ~confirmed ~refuted ~failed =
  {
    Soft.Validate.vs_agent_a = "a";
    vs_agent_b = "b";
    vs_test = "t";
    vs_confirmed = confirmed;
    vs_refuted = refuted;
    vs_failed = failed;
    vs_results = [];
  }

let test_exit_status () =
  check_int "clean run exits 0" 0 (Soft.Report.exit_status (outcome ()));
  check_int "inconsistencies exit 1" 1
    (Soft.Report.exit_status (outcome ~incs:[ some_inc () ] ()));
  check_int "undecided pairs exit 3" 3
    (Soft.Report.exit_status (outcome ~undecided:[ ("A", "B") ] ()));
  check_int "faulted pairs exit 3" 3 (Soft.Report.exit_status (outcome ~faults:1 ()));
  check_int "confirmed inconsistency exits 1" 1
    (Soft.Report.exit_status
       ~validation:(summary ~confirmed:1 ~refuted:0 ~failed:0)
       (outcome ~incs:[ some_inc () ] ()));
  check_int "a refuted-only report is inconclusive: 3" 3
    (Soft.Report.exit_status
       ~validation:(summary ~confirmed:0 ~refuted:1 ~failed:0)
       (outcome ~incs:[ some_inc () ] ()));
  check_int "a replay-failed report is inconclusive: 3" 3
    (Soft.Report.exit_status
       ~validation:(summary ~confirmed:0 ~refuted:0 ~failed:1)
       (outcome ~incs:[ some_inc () ] ()));
  check_int "confirmed outranks undecided" 1
    (Soft.Report.exit_status
       ~validation:(summary ~confirmed:1 ~refuted:0 ~failed:1)
       (outcome ~incs:[ some_inc () ] ~undecided:[ ("A", "B") ] ()))

(* reproducer verdicts rank a real run's exit the way --validate does:
   confirmed findings exit 1, a refuted-only pass downgrades them to 3 *)
let test_reproducers_exit_status () =
  let c = Lazy.force cmp in
  check_int "confirmed reproducers exit 1" 1
    (Soft.Report.exit_status ~validation:(reproducers mod_agent) c.Soft.Pipeline.c_outcome);
  check_int "refuted reproducers exit 3" 3
    (Soft.Report.exit_status ~validation:(reproducers ref_agent) c.Soft.Pipeline.c_outcome)

(* Replay must select exactly the recorded behavior: running either agent
   on any inconsistency's witness lands on the path whose normalized trace
   the crosscheck reported for that agent. *)
let test_replay_is_concrete () =
  let c = Lazy.force cmp in
  let replay agent (inc : Soft.Crosscheck.inconsistency) =
    let witness = inc.Soft.Crosscheck.i_witness in
    match Runner.execute_replay agent c.Soft.Pipeline.c_test ~witness with
    | Some t -> Trace.result_key t
    | None -> Alcotest.fail "witness selected no path on replay"
  in
  List.iter
    (fun (inc : Soft.Crosscheck.inconsistency) ->
      Alcotest.(check string) "agent A replays its recorded trace"
        (Trace.result_key inc.Soft.Crosscheck.i_result_a) (replay ref_agent inc);
      Alcotest.(check string) "agent B replays its recorded trace"
        (Trace.result_key inc.Soft.Crosscheck.i_result_b) (replay mod_agent inc))
    c.Soft.Pipeline.c_outcome.Soft.Crosscheck.o_inconsistencies

(* Validation decides every branch by evaluation: re-validating the shared
   comparison issues no solver query at all. *)
let test_validation_is_solver_free () =
  let c = Lazy.force cmp in
  let work () =
    let s = Smt.Solver.stats () in
    (s.Smt.Solver.queries, s.Smt.Solver.sat_calls)
  in
  let q0, s0 = work () in
  let v =
    Soft.Validate.validate ref_agent mod_agent c.Soft.Pipeline.c_test c.Soft.Pipeline.c_outcome
  in
  let q1, s1 = work () in
  check_bool "still all confirmed" true (Soft.Validate.all_confirmed v);
  check_int "solver queries" 0 (q1 - q0);
  check_int "sat calls" 0 (s1 - s0)

(* Ground truth for replay: every Phase-1 path of both agents, replayed on
   a model of its own path condition, reproduces its own trace. *)
let test_replay_reproduces_every_path () =
  let c = Lazy.force cmp in
  List.iter
    (fun (agent, (run : Runner.run)) ->
      let who = run.Runner.run_agent in
      List.iter
        (fun (p : Runner.path_record) ->
          match Smt.Solver.check p.Runner.pr_constraints with
          | Smt.Solver.Sat m -> (
            match Runner.execute_replay agent c.Soft.Pipeline.c_test ~witness:m with
            | Some t ->
              Alcotest.(check string) "replay reproduces the path's trace"
                (Trace.result_key p.Runner.pr_result) (Trace.result_key t)
            | None -> Alcotest.failf "%s: a path's own model replayed to nothing" who)
          | Smt.Solver.Unsat | Smt.Solver.Unknown _ ->
            Alcotest.failf "%s: a recorded path condition is not satisfiable" who)
        run.Runner.run_paths)
    [ (ref_agent, c.Soft.Pipeline.c_run_a); (mod_agent, c.Soft.Pipeline.c_run_b) ]

(* The precision gap between the two replays: ref vs modified on Set
   Config has two findings whose symbolic replay keys differ, but one of
   them differs only in how a value is written — on its concrete
   reproducer both agents send the same packet-in, and reproducer replay
   refutes it. *)
let test_reproducers_refute_syntactic_findings () =
  let spec = Test_spec.set_config () in
  let c = Soft.Pipeline.compare_agents ~max_paths:100 ref_agent mod_agent spec in
  let o = c.Soft.Pipeline.c_outcome in
  check_int "two findings" 2 (Soft.Pipeline.inconsistency_count c);
  let symbolic = Soft.Validate.validate ref_agent mod_agent spec o in
  let concrete = Soft.Validate.validate_reproducers ref_agent mod_agent spec o in
  check_int "symbolic replay confirms both" 2 symbolic.Soft.Validate.vs_confirmed;
  check_int "reproducer replay refutes one" 1 concrete.Soft.Validate.vs_refuted;
  check_int "and confirms the other" 1 concrete.Soft.Validate.vs_confirmed;
  let keys (r : Soft.Validate.result) =
    match (r.Soft.Validate.v_replay_a, r.Soft.Validate.v_replay_b) with
    | Some ta, Some tb -> (Trace.result_key ta, Trace.result_key tb)
    | _ -> Alcotest.fail "a replay reached no trace"
  in
  List.iter2
    (fun s (r : Soft.Validate.result) ->
      if r.Soft.Validate.v_status = Soft.Validate.Refuted then begin
        let sa, sb = keys s and ca, cb = keys r in
        check_bool "symbolic keys differ" true (sa <> sb);
        check_bool "concrete keys agree" true (ca = cb)
      end)
    symbolic.Soft.Validate.vs_results concrete.Soft.Validate.vs_results

let suite =
  [
    ("real inconsistencies are replay-confirmed", `Quick, test_real_inconsistencies_confirmed);
    ("fabricated inconsistency is refuted", `Quick, test_fabricated_inconsistency_refuted);
    ("unreplayable report is replay-failed", `Quick, test_unreplayable_is_failed);
    ("exit-status policy", `Quick, test_exit_status);
    ("replay pins the witness concretely", `Quick, test_replay_is_concrete);
    ("validation makes no solver queries", `Quick, test_validation_is_solver_free);
    ("replay reproduces every phase-1 path", `Quick, test_replay_reproduces_every_path);
    ("reproducers confirm real findings", `Quick, test_reproducers_confirm_real_findings);
    ("reproducers refute identical agents", `Quick, test_reproducers_refute_identical_agents);
    ("reproducers rank the exit status", `Quick, test_reproducers_exit_status);
    ("reproducers refute syntactic findings", `Quick, test_reproducers_refute_syntactic_findings);
  ]
