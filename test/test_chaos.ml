(* Internal fault injection: deterministic per-point fault schedules, each
   fault point's concrete effect, and the central soundness invariant —
   over many seeds, injected faults may only move crosscheck pairs to
   undecided, never flip a verdict or invent an inconsistency. *)

open Smt
module Chaos = Harness.Chaos
module Runner = Harness.Runner
module Test_spec = Harness.Test_spec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every test leaves the process clean: no active plan, no clock skew,
   no poisoned memo cache. *)
let with_clean_world f =
  Fun.protect
    ~finally:(fun () ->
      Chaos.deactivate ();
      Mono.reset_skew ();
      Solver.clear_cache ())
    f

let fires plan pt n =
  (* the boolean fault schedule of [pt]'s next [n] draws *)
  Chaos.install plan;
  let pattern =
    List.init n (fun _ ->
        match Chaos.maybe_raise pt with
        | () -> false
        | exception Chaos.Injected_fault _ -> true)
  in
  Chaos.deactivate ();
  pattern

let test_plan_determinism () =
  with_clean_world (fun () ->
      let p1 = fires (Chaos.plan ~seed:11 ~rate:0.5 ()) Chaos.Solver_fault 200 in
      let p2 = fires (Chaos.plan ~seed:11 ~rate:0.5 ()) Chaos.Solver_fault 200 in
      check_bool "same seed, same schedule" true (p1 = p2);
      let p3 = fires (Chaos.plan ~seed:12 ~rate:0.5 ()) Chaos.Solver_fault 200 in
      check_bool "different seed, different schedule" true (p1 <> p3);
      check_bool "rate 0.5 actually fires sometimes" true (List.mem true p1);
      check_bool "and spares sometimes" true (List.mem false p1))

let test_point_streams_independent () =
  with_clean_world (fun () ->
      (* drawing at one point must not shift another point's schedule *)
      let solo = fires (Chaos.plan ~seed:7 ~rate:0.5 ()) Chaos.Solver_fault 100 in
      let plan = Chaos.plan ~seed:7 ~rate:0.5 () in
      Chaos.install plan;
      let interleaved =
        List.init 100 (fun _ ->
            (try Chaos.maybe_raise Chaos.Agent_step with Chaos.Injected_fault _ -> ());
            match Chaos.maybe_raise Chaos.Solver_fault with
            | () -> false
            | exception Chaos.Injected_fault _ -> true)
      in
      check_bool "solver-fault schedule unshifted by agent-step draws" true
        (solo = interleaved);
      (* the five points are exactly the names --chaos-points accepts *)
      check_int "five points" 5 (List.length Chaos.all_points);
      List.iter
        (fun pt ->
          check_bool (Chaos.point_name pt) true
            (Chaos.point_of_name (Chaos.point_name pt) = Some pt))
        Chaos.all_points;
      check_bool "no torn-frame point" true (Chaos.point_of_name "torn-frame" = None))

let test_rate_bounds () =
  Alcotest.check_raises "rate above 1 rejected"
    (Invalid_argument "Chaos.plan: rate must be within [0, 1]") (fun () ->
      ignore (Chaos.plan ~seed:1 ~rate:1.5 ()));
  Alcotest.check_raises "negative rate rejected"
    (Invalid_argument "Chaos.plan: rate must be within [0, 1]") (fun () ->
      ignore (Chaos.plan ~seed:1 ~rate:(-0.1) ()));
  with_clean_world (fun () ->
      check_bool "rate 0 never fires" true
        (List.for_all not (fires (Chaos.plan ~seed:1 ~rate:0.0 ()) Chaos.Agent_step 100));
      check_bool "rate 1 always fires" true
        (List.for_all Fun.id (fires (Chaos.plan ~seed:1 ~rate:1.0 ()) Chaos.Agent_step 100));
      Chaos.deactivate ();
      (* with no plan active every injection point is a no-op *)
      Chaos.maybe_raise Chaos.Solver_fault;
      Chaos.maybe_clock_jump ())

let test_clock_jump_and_reset () =
  with_clean_world (fun () ->
      let before = Mono.now () in
      Chaos.install (Chaos.plan ~seed:3 ~rate:1.0 ());
      Chaos.maybe_clock_jump ();
      check_bool "clock jumped a day" true (Mono.now () -. before > 86000.0);
      Mono.reset_skew ();
      check_bool "reset_skew restores the clock" true (Mono.now () -. before < 86000.0))

let test_truncation_point () =
  with_clean_world (fun () ->
      let file = Filename.temp_file "soft_chaos" ".dat" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc (String.make 100 'x'));
          (* inactive: untouched *)
          Chaos.maybe_truncate_file file;
          check_int "no plan, no truncation" 100 (Unix.stat file).Unix.st_size;
          Chaos.install (Chaos.plan ~seed:3 ~rate:1.0 ());
          Chaos.maybe_truncate_file file;
          check_int "fired truncation halves the file" 50 (Unix.stat file).Unix.st_size))

(* --- agent-step faults abort runs loudly ------------------------------ *)

let test_agent_step_fault_aborts_run () =
  with_clean_world (fun () ->
      Chaos.install (Chaos.plan ~seed:1 ~rate:1.0 ());
      let spec = Test_spec.packet_out () in
      (match Runner.execute ~max_paths:20 Switches.Reference_switch.agent spec with
       | _ -> Alcotest.fail "injected agent fault did not abort the run"
       | exception Chaos.Injected_fault p ->
         Alcotest.(check string) "the agent-step point fired" "agent-step" p);
      (* crash isolation still contains it at the run boundary: the fault
         becomes a failure record, never a fake trace *)
      match Runner.execute_safe ~max_paths:20 Switches.Reference_switch.agent spec with
      | Ok _ -> Alcotest.fail "execute_safe should have seen the fault"
      | Error f ->
        check_bool "failure names the injected fault" true
          (String.length f.Runner.f_error > 0))

(* --- the soundness invariant over many seeds -------------------------- *)

(* Baseline: a real crosscheck of the reference vs modified switches,
   grouped once.  Chaos then re-runs the same crosscheck under 8 seeds
   with solver faults, clock jumps, and checkpoint truncation armed.  A
   seed may cost verdicts (pairs degrade to undecided) but must never
   invent an inconsistency, lose one to anything but undecided, or alter
   which pairs were compared. *)
let inc_keys (o : Soft.Crosscheck.outcome) =
  List.map
    (fun (i : Soft.Crosscheck.inconsistency) ->
      ( Openflow.Trace.result_key i.Soft.Crosscheck.i_result_a,
        Openflow.Trace.result_key i.Soft.Crosscheck.i_result_b ))
    o.Soft.Crosscheck.o_inconsistencies

let test_chaos_only_grows_undecided () =
  with_clean_world (fun () ->
      let spec = Test_spec.packet_out () in
      let run_a = Runner.execute ~max_paths:60 Switches.Reference_switch.agent spec in
      let run_b = Runner.execute ~max_paths:60 Switches.Modified_switch.agent spec in
      let a = Soft.Grouping.of_run run_a and b = Soft.Grouping.of_run run_b in
      Solver.clear_cache ();
      let baseline = Soft.Crosscheck.check a b in
      check_bool "baseline finds inconsistencies" true (Soft.Crosscheck.count baseline > 0);
      check_int "baseline has no undecided pairs" 0
        (Soft.Crosscheck.undecided_count baseline);
      let base_incs = inc_keys baseline in
      for seed = 1 to 8 do
        (* a fresh cache per seed: memoized answers would bypass the SAT
           core and with it the injection point *)
        Solver.clear_cache ();
        Mono.reset_skew ();
        Chaos.install (Chaos.plan ~seed ~rate:0.3 ());
        (* a generous per-query budget: only an injected clock jump can
           expire it, which must degrade the pair, not misreport it *)
        let o = Soft.Crosscheck.check ~budget:(Solver.budget ~timeout_ms:60_000 ()) a b in
        Chaos.deactivate ();
        let chaos_incs = inc_keys o in
        let msg s = Printf.sprintf "seed %d: %s" seed s in
        check_int (msg "same pairs compared") baseline.Soft.Crosscheck.o_pairs_checked
          o.Soft.Crosscheck.o_pairs_checked;
        check_int (msg "same pairs equal") baseline.Soft.Crosscheck.o_pairs_equal
          o.Soft.Crosscheck.o_pairs_equal;
        (* no invented inconsistencies *)
        List.iter
          (fun k -> check_bool (msg "every inconsistency is a baseline one") true
              (List.mem k base_incs))
          chaos_incs;
        (* every lost inconsistency is accounted for as undecided *)
        List.iter
          (fun k ->
            if not (List.mem k chaos_incs) then
              check_bool (msg "lost verdicts became undecided") true
                (List.mem k o.Soft.Crosscheck.o_pairs_undecided))
          base_incs;
        (* faulted pairs are counted, and counted inside undecided *)
        check_bool (msg "fault count bounded by undecided") true
          (o.Soft.Crosscheck.o_pair_faults <= Soft.Crosscheck.undecided_count o)
      done;
      (* determinism: the same seed reproduces the same degraded outcome *)
      let rerun seed =
        Solver.clear_cache ();
        Mono.reset_skew ();
        Chaos.install (Chaos.plan ~seed ~rate:0.3 ());
        let o = Soft.Crosscheck.check a b in
        Chaos.deactivate ();
        (inc_keys o, o.Soft.Crosscheck.o_pairs_undecided)
      in
      check_bool "a seed reproduces its exact outcome" true (rerun 5 = rerun 5))

(* --- a sweep with the default (unbudgeted) crosscheck ------------------ *)

let grouped_runs () =
  let spec = Test_spec.packet_out () in
  let run_a = Runner.execute ~max_paths:60 Switches.Reference_switch.agent spec in
  let run_b = Runner.execute ~max_paths:60 Switches.Modified_switch.agent spec in
  (Soft.Grouping.of_run run_a, Soft.Grouping.of_run run_b)

let test_chaos_sweep_only_degrades () =
  (* faults injected into the pairwise solves may cost verdicts, never
     invent them: every inconsistency reported under
     chaos exists in the clean run, and anything lost shows up as
     undecided *)
  with_clean_world (fun () ->
      Solver.set_certify false;
      let a, b = grouped_runs () in
      Solver.clear_cache ();
      let clean = Soft.Crosscheck.check ~jobs:1 a b in
      let clean_keys = inc_keys clean in
      check_bool "clean run finds inconsistencies" true (Soft.Crosscheck.count clean > 0);
      for seed = 1 to 8 do
        Solver.clear_cache ();
        Mono.reset_skew ();
        Chaos.install (Chaos.plan ~seed ~rate:0.3 ());
        let chaotic = Soft.Crosscheck.check ~jobs:1 a b in
        Chaos.deactivate ();
        Mono.reset_skew ();
        let msg s = Printf.sprintf "chaos seed %d: %s" seed s in
        List.iter
          (fun k ->
            check_bool (msg "no inconsistency is invented under chaos") true
              (List.mem k clean_keys))
          (inc_keys chaotic);
        check_bool (msg "lost verdicts degrade to undecided, never vanish") true
          (Soft.Crosscheck.count clean - Soft.Crosscheck.count chaotic
          <= Soft.Crosscheck.undecided_count chaotic);
        check_int (msg "the pair matrix is fully accounted")
          clean.Soft.Crosscheck.o_pairs_checked chaotic.Soft.Crosscheck.o_pairs_checked
      done)

(* --- checkpoint truncation under chaos heals via cold start ----------- *)

let test_truncated_chaos_checkpoint_heals () =
  with_clean_world (fun () ->
      let spec = Test_spec.packet_out () in
      let run_a = Runner.execute ~max_paths:60 Switches.Reference_switch.agent spec in
      let run_b = Runner.execute ~max_paths:60 Switches.Modified_switch.agent spec in
      let a = Soft.Grouping.of_run run_a and b = Soft.Grouping.of_run run_b in
      Solver.clear_cache ();
      let baseline = Soft.Crosscheck.check a b in
      let file = Filename.temp_file "soft_chaos_ckpt" ".txt" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          (* rate 1: every snapshot written is immediately truncated *)
          Chaos.install (Chaos.plan ~seed:9 ~rate:1.0 ());
          ignore (Soft.Crosscheck.check ~checkpoint:file ~checkpoint_every:4 a b);
          Chaos.deactivate ();
          check_bool "a (truncated) checkpoint exists" true (Sys.file_exists file);
          (* resuming from the mangled file warns and starts cold — and the
             cold run still reproduces the uninterrupted outcome *)
          Solver.clear_cache ();
          let warnings = ref [] in
          let o =
            Soft.Crosscheck.check ~resume:file
              ~on_warning:(fun m -> warnings := m :: !warnings)
              a b
          in
          check_bool "corruption was warned about" true (!warnings <> []);
          check_int "cold start reproduces the baseline"
            (Soft.Crosscheck.count baseline) (Soft.Crosscheck.count o)))

let suite =
  [
    ("plans are deterministic per seed", `Quick, test_plan_determinism);
    ("fault points draw independent streams", `Quick, test_point_streams_independent);
    ("rate validation and edge rates", `Quick, test_rate_bounds);
    ("clock jump fires and resets", `Quick, test_clock_jump_and_reset);
    ("checkpoint truncation point", `Quick, test_truncation_point);
    ("agent-step fault aborts the run loudly", `Quick, test_agent_step_fault_aborts_run);
    ("chaos only grows undecided (8 seeds)", `Quick, test_chaos_only_grows_undecided);
    ("truncated chaos checkpoint heals cold", `Quick, test_truncated_chaos_checkpoint_heals);
    ("chaos sweep over the crosscheck only grows undecided", `Quick,
     test_chaos_sweep_only_degrades);
  ]
