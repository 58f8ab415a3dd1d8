(* The `soft` command-line tool, mirroring SOFT's decoupled workflow
   (paper §2.4 and §4.2):

     soft run    --agent ref --test packet_out --out ref.run
         phase 1, run privately by each vendor: symbolic execution of one
         agent on one test; writes path conditions + normalized results.

     soft group  ref.run
         the grouping tool: report the distinct output results.

     soft check  ref.run ovs.run
         the inconsistency finder: crosscheck two phase-1 outputs.

     soft compare --agent-a ref --agent-b ovs --test packet_out
         both phases in one process, with reproducer test cases.

     soft list
         available agents and tests.

   Crash-safe batch crosschecks: ship each agent's phase-1 output with
   [run -o], then

     soft check  ref.run ovs.run --checkpoint ck --resume ck
         kill it at any instant and rerun the same command: it resumes
         from the last snapshot and prints the uninterrupted report; on a
         finished snapshot it answers without a single SAT call.

   Exit status (scriptable):
     0  clean — no inconsistencies, nothing undecided or unvalidated
     1  inconsistencies found (replay-confirmed ones under --validate)
     2  usage error (bad flags, unknown agent/test, mismatched resume file)
     3  inconclusive — undecided/faulted pairs, refuted or unreplayable
        reports, or an injected fault aborting a run
     125  unexpected internal exception *)

let agents =
  [
    ("ref", Switches.Reference_switch.agent);
    ("reference", Switches.Reference_switch.agent);
    ("ovs", Switches.Open_vswitch.agent);
    ("modified", Switches.Modified_switch.agent);
  ]

let lookup_agent name =
  match List.assoc_opt (String.lowercase_ascii name) agents with
  | Some a -> Ok a
  | None ->
    Error
      (Printf.sprintf "unknown agent %s (available: ref, ovs, modified)" name)

let lookup_test id =
  match Harness.Test_spec.by_id id with
  | Some t -> Ok t
  | None ->
    Error
      (Printf.sprintf "unknown test %s (available: %s)" id
         (String.concat ", "
            (List.map (fun (t : Harness.Test_spec.t) -> t.id) (Harness.Test_spec.all ()))))

open Cmdliner

let agent_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (lookup_agent s) in
  let print fmt a = Format.fprintf fmt "%s" (Switches.Agent_intf.name a) in
  Arg.conv (parse, print)

let test_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (lookup_test s) in
  let print fmt (t : Harness.Test_spec.t) = Format.fprintf fmt "%s" t.id in
  Arg.conv (parse, print)

let max_paths =
  Arg.(
    value
    & opt int Harness.Runner.default_max_paths
    & info [ "max-paths" ] ~doc:"Path exploration budget per run.")

let strategy =
  let strategy_conv =
    Arg.conv ~docv:"STRATEGY"
      ( (fun s ->
          match Symexec.Strategy.of_string s with
          | Some st -> Ok st
          | None -> Error (`Msg ("unknown strategy " ^ s))),
        fun fmt s -> Format.fprintf fmt "%s" (Symexec.Strategy.to_string s) )
  in
  Arg.(
    value
    & opt strategy_conv Symexec.Strategy.default
    & info [ "strategy" ]
        ~doc:
          "Search strategy: dfs, bfs, random, interleave.  The randomized \
           strategies accept an explicit seed as random:$(i,SEED) / \
           interleave:$(i,SEED) for reproducible exploration orders.")

(* --- resource budgets (the graceful-degradation layer) ---------------- *)

let budget_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-ms" ]
        ~doc:
          "Wall-clock budget per solver query, in milliseconds.  An exhausted \
           query returns unknown instead of running forever; crosscheck then \
           escalates down the chunk-split retry ladder and finally reports the \
           pair as undecided.")

let max_conflicts =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ]
        ~doc:"CDCL conflict budget per solver query (deterministic counterpart of --budget-ms).")

let deadline_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ]
        ~doc:
          "Wall-clock budget for one whole symbolic-execution run; exploration \
           stops at the deadline and keeps the paths found so far.")

let split =
  let positive_conv =
    Arg.conv ~docv:"N"
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n > 0 -> Ok n
          | Some _ -> Error (`Msg "chunk size must be positive")
          | None -> Error (`Msg ("expected an integer, got " ^ s))),
        Format.pp_print_int )
  in
  Arg.(
    value
    & opt (some positive_conv) None
    & info [ "split" ]
        ~doc:
          "Crosscheck chunk pairs of at most N member path conditions instead of \
           monolithic group disjunctions.")

let no_incremental =
  Arg.(
    value
    & flag
    & info [ "no-incremental" ]
        ~doc:
          "Solve every crosscheck pair on a fresh SAT instance instead of the \
           default all-SAT row queries on rows restored from a template \
           (B's conditions blasted once, learnt-clause reuse within a row).  Reports \
           are byte-identical either way; this is an escape hatch for \
           isolating solver issues and for benchmarking the amortization.")

let jobs =
  let jobs_conv =
    Arg.conv ~docv:"N"
      ( (fun s ->
          match int_of_string_opt s with
          | Some 0 -> Ok (Harness.Pool.default_jobs ())
          | Some n when n >= 1 -> Ok n
          | Some _ -> Error (`Msg "jobs must be positive (or 0 for one per core)")
          | None -> Error (`Msg ("expected an integer, got " ^ s))),
        Format.pp_print_int )
  in
  Arg.(
    value
    & opt jobs_conv 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the crosscheck (and, under $(b,compare), the two \
           agents' explorations).  0 picks one per core.  The report is \
           independent of N: pairs are merged back in a fixed order and the \
           checkpoint writer stays single-threaded.")

(* The default budget reaches every solver call in the process — including
   the ones issued deep inside the engine — without threading a parameter
   through each layer. *)
let apply_budget budget_ms max_conflicts =
  Smt.Solver.set_default_budget
    (Smt.Solver.budget ?max_conflicts ?timeout_ms:budget_ms ())

(* --- the self-validation layer ---------------------------------------- *)

let certify =
  Arg.(
    value
    & flag
    & info [ "certify" ]
        ~doc:
          "Require a checked DRUP proof for every UNSAT solver answer; an \
           answer whose proof the independent checker rejects is downgraded \
           to unknown (the pair becomes undecided) instead of being trusted.")

let validate =
  Arg.(
    value
    & flag
    & info [ "validate" ]
        ~doc:
          "Replay every found inconsistency's concrete witness through both \
           agents and confirm the traces really diverge; refuted or \
           unreplayable reports are flagged and make the run inconclusive.")

let chaos_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:
          "Enable deterministic internal fault injection with this seed \
           (solver faults, agent-step faults, checkpoint truncation, clock \
           jumps).  Faults may only degrade results to undecided — never \
           change a verdict.")

let chaos_rate =
  let rate_conv =
    Arg.conv ~docv:"RATE"
      ( (fun s ->
          match float_of_string_opt s with
          | Some r when r >= 0.0 && r <= 1.0 -> Ok r
          | Some _ -> Error (`Msg "fault rate must be within [0, 1]")
          | None -> Error (`Msg ("expected a float, got " ^ s))),
        fun fmt r -> Format.fprintf fmt "%g" r )
  in
  Arg.(
    value
    & opt rate_conv 0.05
    & info [ "chaos-rate" ] ~docv:"RATE"
        ~doc:"Per-injection-point fault probability under --chaos-seed (default 0.05).")

let chaos_points =
  let points_conv =
    Arg.conv ~docv:"POINT,POINT,..."
      ( (fun s ->
          let parts = String.split_on_char ',' s in
          let available =
            String.concat ", "
              (List.map Harness.Chaos.point_name Harness.Chaos.all_points)
          in
          match
            List.filter (fun p -> Harness.Chaos.point_of_name p = None) parts
          with
          | [] -> Ok (List.filter_map Harness.Chaos.point_of_name parts)
          | unknown ->
            (* name the offending tokens, not the whole input *)
            Error
              (`Msg
                 (Printf.sprintf "unknown chaos point%s %s (available: %s)"
                    (if List.length unknown = 1 then "" else "s")
                    (String.concat ", "
                       (List.map (Printf.sprintf "%S") unknown))
                    available))),
        fun fmt pts ->
          Format.fprintf fmt "%s"
            (String.concat "," (List.map Harness.Chaos.point_name pts)) )
  in
  Arg.(
    value
    & opt (some points_conv) None
    & info [ "chaos-points" ] ~docv:"POINT,POINT,..."
        ~doc:
          "Restrict --chaos-seed to these injection points (e.g. \
           checkpoint-truncate to fault only the snapshot writes).  A masked \
           point never fires and never draws, so the other points' \
           schedules are unchanged.")

let apply_certify c = Smt.Solver.set_certify c

let apply_chaos ?points seed rate =
  match seed with
  | None -> ()
  | Some s -> Harness.Chaos.install (Harness.Chaos.plan ?only:points ~seed:s ~rate ())

(* --- fault-schedule record/replay (check and compare) ------------------ *)

let replay_schedule_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay-schedule" ] ~docv:"FILE"
        ~doc:
          "Replay an explicit fault schedule (a repro file written by \
           $(b,--record-schedule) or $(b,soft explore --repro)): exactly the \
           listed (point, key, draw-index) sites fire, every other draw is \
           spared.  The schedule is the complete fault specification, so this \
           conflicts with --chaos-seed.")

let record_schedule_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record-schedule" ] ~docv:"FILE"
        ~doc:
          "After the run, write the faults that actually fired as an explicit \
           schedule to $(docv) — a repro file that $(b,--replay-schedule) \
           re-executes deterministically, at any -j.  Requires --chaos-seed \
           (or --replay-schedule, which re-records itself).")

(* Install the chaos plan for check/compare, honouring the record/replay
   surface.  Errors are usage errors (exit 2). *)
let setup_chaos ?points ~replay ~record seed rate =
  let recording = record <> None in
  match (replay, seed) with
  | Some _, Some _ ->
    Error
      "--replay-schedule conflicts with --chaos-seed (the schedule is the \
       complete fault specification)"
  | Some file, None -> (
    match Harness.Schedule.load file with
    | Error e -> Error (Printf.sprintf "cannot load schedule %s: %s" file e)
    | Ok sched -> (
      match Harness.Chaos.scripted ?only:points ~record:recording sched with
      | plan ->
        Harness.Chaos.install plan;
        Ok ()
      | exception Invalid_argument msg -> Error msg))
  | None, Some s ->
    Harness.Chaos.install
      (Harness.Chaos.plan ?only:points ~record:recording ~seed:s ~rate ());
    Ok ()
  | None, None ->
    if recording then
      Error "--record-schedule requires --chaos-seed or --replay-schedule"
    else Ok ()

(* Write the fired draws of the still-installed plan as a repro file. *)
let save_recorded ~meta record =
  match (record, Harness.Chaos.current ()) with
  | Some file, Some plan ->
    let sched = Harness.Chaos.to_schedule ~meta plan in
    Harness.Schedule.save file sched;
    Format.printf "recorded %d fired site(s) to %s@."
      (Harness.Schedule.cardinal sched) file
  | _ -> ()

let chaos_report () =
  match Harness.Chaos.current () with
  | None -> ()
  | Some p -> Format.printf "%a@." Harness.Chaos.pp p

(* --- run ------------------------------------------------------------- *)

let run_cmd =
  let agent =
    Arg.(required & opt (some agent_conv) None & info [ "agent" ] ~doc:"Agent under test.")
  in
  let test = Arg.(required & opt (some test_conv) None & info [ "test" ] ~doc:"Test id.") in
  let out =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~doc:"Output file.")
  in
  let run agent test out max_paths strategy budget_ms max_conflicts deadline_ms certify
      chaos_seed chaos_rate chaos_points =
    apply_budget budget_ms max_conflicts;
    apply_certify certify;
    apply_chaos ?points:chaos_points chaos_seed chaos_rate;
    match Harness.Runner.execute ~max_paths ~strategy ?deadline_ms agent test with
    | r ->
      Harness.Serialize.save out (Harness.Serialize.of_run r);
      Format.printf "%s on %s: %a@." r.Harness.Runner.run_agent r.run_test
        Symexec.Engine.pp_stats r.run_stats;
      Format.printf "coverage: %a@." Symexec.Coverage.pp_report
        (Harness.Runner.coverage_report r);
      Format.printf "wrote %s@." out;
      chaos_report ();
      0
    | exception Harness.Chaos.Injected_fault p ->
      Format.eprintf "soft: injected fault (%s) aborted the run@." p;
      3
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Phase 1: symbolically execute one agent on one test.")
    Term.(
      const run $ agent $ test $ out $ max_paths $ strategy $ budget_ms $ max_conflicts
      $ deadline_ms $ certify $ chaos_seed $ chaos_rate $ chaos_points)

(* --- group ----------------------------------------------------------- *)

let group_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"RUN_FILE") in
  let run file =
    let saved = Harness.Serialize.load file in
    let g = Soft.Grouping.of_saved saved in
    Format.printf "%a@." Soft.Grouping.pp g;
    0
  in
  Cmd.v
    (Cmd.info "group" ~doc:"Group path conditions of a phase-1 run by output result.")
    Term.(const run $ file)

(* --- check ----------------------------------------------------------- *)

let check_cmd =
  let file_a = Arg.(required & pos 0 (some file) None & info [] ~docv:"RUN_A") in
  let file_b = Arg.(required & pos 1 (some file) None & info [] ~docv:"RUN_B") in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically snapshot crosscheck progress to $(docv) (atomic \
             rename), so a killed run can restart where it left off.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a previous --checkpoint snapshot; pairs it already \
             decided are not re-solved.  A missing file is a fresh start.  Use \
             the same file for --checkpoint and --resume to make a run \
             restartable in place.")
  in
  let run file_a file_b split budget_ms max_conflicts checkpoint resume jobs no_incremental
      certify chaos_seed chaos_rate chaos_points replay record =
    apply_budget budget_ms max_conflicts;
    apply_certify certify;
    match setup_chaos ?points:chaos_points ~replay ~record chaos_seed chaos_rate with
    | Error msg ->
      Format.eprintf "soft: %s@." msg;
      2
    | Ok () -> (
      let a = Soft.Grouping.of_saved (Harness.Serialize.load file_a) in
      let b = Soft.Grouping.of_saved (Harness.Serialize.load file_b) in
      match
        Soft.Crosscheck.check ?split ?checkpoint ?resume ~jobs
          ~incremental:(not no_incremental) a b
      with
      | outcome ->
        Format.printf "%a@." Soft.Crosscheck.pp outcome;
        Format.printf "root causes:@.%a@." Soft.Report.pp_summary
          (Soft.Report.summarize outcome);
        chaos_report ();
        save_recorded
          ~meta:
            [
              ("cmd", "check");
              ("runs", Filename.basename file_a ^ " " ^ Filename.basename file_b);
            ]
          record;
        Soft.Report.exit_status outcome
      | exception Soft.Crosscheck.Checkpoint_error msg ->
        (* pointing --resume at the wrong runs' snapshot is an operator
           mistake, not a finding: usage error *)
        Format.eprintf "soft: cannot resume: %s@." msg;
        2)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Phase 2: crosscheck two phase-1 runs for inconsistencies.")
    Term.(
      const run $ file_a $ file_b $ split $ budget_ms $ max_conflicts $ checkpoint $ resume
      $ jobs $ no_incremental $ certify $ chaos_seed $ chaos_rate $ chaos_points
      $ replay_schedule_arg $ record_schedule_arg)

(* --- compare --------------------------------------------------------- *)

let compare_cmd =
  let agent_a =
    Arg.(required & opt (some agent_conv) None & info [ "agent-a"; "a" ] ~doc:"First agent.")
  in
  let agent_b =
    Arg.(required & opt (some agent_conv) None & info [ "agent-b"; "b" ] ~doc:"Second agent.")
  in
  let test = Arg.(required & opt (some test_conv) None & info [ "test" ] ~doc:"Test id.") in
  let cases =
    Arg.(value & flag & info [ "cases" ] ~doc:"Print a concrete reproducer per inconsistency.")
  in
  let validate_reproducers =
    Arg.(
      value & flag
      & info [ "validate-reproducers" ]
          ~doc:
            "Replay every found inconsistency on its concrete reproducer (the \
             bytes $(b,--cases) prints, decoded back into constant inputs) \
             through both agents and compare their traces.  The verdicts \
             decide the exit status: a confirmed inconsistency exits 1, a \
             refuted or unreplayable-only report 3.")
  in
  let run agent_a agent_b test cases max_paths strategy split budget_ms max_conflicts
      deadline_ms jobs no_incremental certify validate validate_reproducers
      chaos_seed chaos_rate chaos_points replay record =
    apply_budget budget_ms max_conflicts;
    apply_certify certify;
    match setup_chaos ?points:chaos_points ~replay ~record chaos_seed chaos_rate with
    | Error msg ->
      Format.eprintf "soft: %s@." msg;
      2
    | Ok () -> (
      match
        Soft.Pipeline.compare_agents ~max_paths ~strategy ?deadline_ms ?split ~jobs
          ~incremental:(not no_incremental) ~validate agent_a agent_b test
      with
      | c ->
        Format.printf "%a@." Soft.Pipeline.pp_comparison c;
        if cases then
          List.iteri
            (fun i tc -> Format.printf "@.=== reproducer %d ===@.%a@." i Soft.Testcase.pp tc)
            (Soft.Pipeline.test_cases c);
        (* reproducer verdicts, when asked for, outrank --validate's *)
        let validation =
          if validate_reproducers then begin
            let v =
              Soft.Validate.validate_reproducers agent_a agent_b c.Soft.Pipeline.c_test
                c.Soft.Pipeline.c_outcome
            in
            Format.printf "%a@." (Soft.Validate.pp_titled "reproducer validation") v;
            Some v
          end
          else c.Soft.Pipeline.c_validation
        in
        let code = Soft.Report.exit_status ?validation c.Soft.Pipeline.c_outcome in
        chaos_report ();
        save_recorded
          ~meta:[ ("cmd", "compare"); ("workload", test.Harness.Test_spec.id) ]
          record;
        code
      | exception Harness.Chaos.Injected_fault p ->
        Format.eprintf "soft: injected fault (%s) aborted the run@." p;
        3)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run both phases: find inconsistencies between two agents.")
    Term.(
      const run $ agent_a $ agent_b $ test $ cases $ max_paths $ strategy $ split
      $ budget_ms $ max_conflicts $ deadline_ms $ jobs $ no_incremental
      $ certify $ validate $ validate_reproducers
      $ chaos_seed $ chaos_rate $ chaos_points $ replay_schedule_arg $ record_schedule_arg)

(* --- explore (systematic fault-schedule search) ------------------------ *)

let explore_cmd =
  let positive name =
    Arg.conv ~docv:"N"
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | Some _ -> Error (`Msg (name ^ " must be positive"))
          | None -> Error (`Msg ("expected an integer, got " ^ s))),
        Format.pp_print_int )
  in
  let workload_name =
    Arg.(
      value
      & opt string "cs_flow_mods"
      & info [ "workload"; "w" ] ~docv:"NAME"
          ~doc:
            "Workload to explore: a test id (crosschecked between --agent-a \
             and --agent-b, with a checkpoint leg and a fault-free recovery \
             resume per run) or $(b,synthetic-pair), the explorer's pure-draw \
             self-test.  Default cs_flow_mods.")
  in
  let agent_a =
    Arg.(
      value
      & opt agent_conv Switches.Reference_switch.agent
      & info [ "agent-a"; "a" ] ~doc:"First agent (default ref).")
  in
  let agent_b =
    Arg.(
      value
      & opt agent_conv Switches.Modified_switch.agent
      & info [ "agent-b"; "b" ] ~doc:"Second agent (default modified).")
  in
  let max_schedules =
    Arg.(
      value
      & opt (positive "max-schedules") 256
      & info [ "max-schedules" ] ~docv:"N"
          ~doc:"Candidate-schedule budget (default 256).")
  in
  let faults_per_schedule =
    Arg.(
      value
      & opt (positive "faults-per-schedule") 2
      & info [ "faults-per-schedule" ] ~docv:"N"
          ~doc:
            "Schedule density: 1 enumerates every single-fault schedule; 2 \
             adds a budgeted pass over all pairs; higher densities fill the \
             remaining budget with deterministic random N-site schedules \
             (default 2).")
  in
  let shrink =
    Arg.(
      value
      & flag
      & info [ "shrink" ]
          ~doc:
            "ddmin every violation to a locally minimal failing schedule: \
             removing any single remaining site makes the oracles pass.")
  in
  let repro =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"FILE"
          ~doc:
            "Write the first violation's schedule (the shrunk one under \
             --shrink) to $(docv), with an exact replay command on stdout.")
  in
  let schedule_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:
            "Replay one explicit schedule against the workload's oracles \
             instead of enumerating candidates: exit 0 if every oracle holds, \
             1 on violation.  This is how committed repro files are \
             re-validated.")
  in
  let seed =
    Arg.(
      value
      & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for the random-schedule strategy (default 0).")
  in
  let max_wall_s =
    Arg.(
      value
      & opt float 300.0
      & info [ "max-wall-s" ] ~docv:"S"
          ~doc:"Wall-clock bound per workload run checked by the time oracle (default 300).")
  in
  let save_repro ~workload_name file sched =
    let sched =
      Harness.Schedule.with_meta
        [ ("workload", workload_name); ("expect", "violation") ]
        sched
    in
    Harness.Schedule.save file sched;
    Format.printf "wrote repro %s (%d site(s))@." file (Harness.Schedule.cardinal sched);
    Format.printf "replay: soft explore --workload %s --schedule %s@." workload_name file
  in
  let run workload_name agent_a agent_b max_paths jobs max_schedules faults_per_schedule
      shrink repro schedule_file seed max_wall_s budget_ms max_conflicts =
    apply_budget budget_ms max_conflicts;
    match
      Soft.Oracle.workload ~max_paths ~jobs ~max_wall_s ~a:agent_a ~b:agent_b workload_name
    with
    | Error msg ->
      Format.eprintf "soft: %s@." msg;
      2
    | Ok w -> (
      match schedule_file with
      | Some file -> (
        match Harness.Schedule.load file with
        | Error e ->
          Format.eprintf "soft: cannot load schedule %s: %s@." file e;
          2
        | Ok sched -> (
          let baseline, sites = Harness.Explore.discover w in
          Format.printf "%s: %d draw site(s); replaying %s (%d scheduled)@."
            workload_name (List.length sites) file (Harness.Schedule.cardinal sched);
          match Harness.Explore.check_schedule w ~baseline sched with
          | [] ->
            Format.printf "schedule upholds every oracle@.";
            0
          | messages ->
            List.iter (Format.printf "violation: %s@.") messages;
            (match (shrink, repro) with
            | false, Some file' -> save_repro ~workload_name file' sched
            | true, _ -> (
              match Harness.Explore.shrink w ~baseline sched with
              | None -> ()
              | Some (minimal, tests) ->
                Format.printf "shrunk to %d site(s) in %d run(s)@."
                  (Harness.Schedule.cardinal minimal) tests;
                Option.iter
                  (fun file' -> save_repro ~workload_name file' minimal)
                  repro)
            | false, None -> ());
            1))
      | None ->
        let out =
          Harness.Explore.explore ~max_schedules ~faults_per_schedule ~seed ~shrink
            ~log:(fun m -> Format.printf "%s@." m)
            w
        in
        let s = out.Harness.Explore.o_stats in
        Format.printf
          "%s: %d site(s), %d schedule(s) run, %d violation(s), %d shrink run(s)@."
          workload_name s.Harness.Explore.x_sites s.x_schedules s.x_violations
          s.x_shrink_tests;
        (match out.Harness.Explore.o_violations with
        | [] -> 0
        | v :: _ ->
          Option.iter
            (fun file ->
              save_repro ~workload_name file
                (Option.value ~default:v.Harness.Explore.v_schedule
                   v.Harness.Explore.v_minimal))
            repro;
          1))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematic fault-schedule exploration: discover the workload's draw \
          sites, run it under candidate schedules (all singles, budgeted \
          pairs, random combinations), check the standing invariant oracles \
          per schedule, and ddmin any violation to a minimal repro file.")
    Term.(
      const run $ workload_name $ agent_a $ agent_b $ max_paths $ jobs $ max_schedules
      $ faults_per_schedule $ shrink $ repro $ schedule_file $ seed $ max_wall_s
      $ budget_ms $ max_conflicts)

(* --- list ------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Format.printf "agents:@.";
    Format.printf "  ref       - OpenFlow 1.0 Reference Switch model@.";
    Format.printf "  ovs       - Open vSwitch 1.0.0 model@.";
    Format.printf "  modified  - Reference Switch with 7 injected differences@.";
    Format.printf "@.tests (Table 1):@.";
    List.iter
      (fun (t : Harness.Test_spec.t) -> Format.printf "  %-14s %s@." t.id t.description)
      (Harness.Test_spec.all ());
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List available agents and tests.") Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "soft" ~version:"1.0.0"
       ~doc:"Systematic OpenFlow Testing: crosscheck OpenFlow agent implementations.")
    [
      run_cmd;
      group_cmd;
      check_cmd;
      compare_cmd;
      explore_cmd;
      list_cmd;
    ]

(* Commands return their own exit status; cmdliner's parse/term errors map
   to the documented usage status 2, an escaped exception to 125. *)
let () =
  match Cmd.eval_value main with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
