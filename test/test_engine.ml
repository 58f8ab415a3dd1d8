(* Symbolic execution engine tests: forking, path conditions, replay
   determinism, strategies, coverage, crash/stop handling, limits. *)

open Smt
module Engine = Symexec.Engine
module Coverage = Symexec.Coverage
module Strategy = Symexec.Strategy

let c16 v = Expr.const ~width:16 (Int64.of_int v)
let x = Expr.var ~width:16 "engx"
let y = Expr.var ~width:16 "engy"

let run ?strategy ?max_paths ?max_decisions program =
  Engine.run ?strategy ?max_paths ?max_decisions program

let path_count (r : 'a Engine.run_result) = List.length r.Engine.results

let test_no_branch () =
  let r = run (fun env -> Engine.emit env "done") in
  Alcotest.(check int) "one path" 1 (path_count r);
  match r.Engine.results with
  | [ p ] ->
    Alcotest.(check (list string)) "events" [ "done" ] p.Engine.events;
    Alcotest.(check bool) "empty pc" true (Expr.is_true p.Engine.path_cond)
  | _ -> assert false

let test_single_branch () =
  let r =
    run (fun env ->
        if Engine.branch env (Expr.ult x (c16 10)) then Engine.emit env "low"
        else Engine.emit env "high")
  in
  Alcotest.(check int) "two paths" 2 (path_count r);
  let events = List.concat_map (fun p -> p.Engine.events) r.Engine.results in
  Alcotest.(check bool) "both outcomes" true
    (List.mem "low" events && List.mem "high" events)

let test_infeasible_pruning () =
  let r =
    run (fun env ->
        if Engine.branch env (Expr.ult x (c16 10)) then begin
          (* x < 10 makes x = 50 infeasible: no fork *)
          if Engine.branch env (Expr.eq x (c16 50)) then Engine.emit env "impossible"
          else Engine.emit env "consistent"
        end
        else Engine.emit env "high")
  in
  Alcotest.(check int) "two paths" 2 (path_count r);
  Alcotest.(check bool) "impossible path absent" false
    (List.exists (fun p -> List.mem "impossible" p.Engine.events) r.Engine.results)

let test_path_conditions_sound () =
  let r =
    run (fun env ->
        let a = Engine.branch env (Expr.ult x (c16 100)) in
        let b = Engine.branch env (Expr.eq y (c16 7)) in
        Engine.emit env (Printf.sprintf "%b%b" a b))
  in
  Alcotest.(check int) "four paths" 4 (path_count r);
  List.iter
    (fun (p : string Engine.path_result) ->
      (* a model of the path condition must reproduce the same events *)
      match Solver.check p.Engine.pc with
      | Solver.Unsat -> Alcotest.fail "path condition must be satisfiable"
      | Solver.Unknown _ -> Alcotest.fail "unbudgeted query returned Unknown"
      | Solver.Sat m ->
        let a = Int64.unsigned_compare (Model.get m (Expr.make_var "engx" 16)) 100L < 0 in
        let b = Model.get m (Expr.make_var "engy" 16) = 7L in
        Alcotest.(check (list string)) "replaying the model reproduces the trace"
          [ Printf.sprintf "%b%b" a b ] p.Engine.events)
    r.Engine.results

let test_concrete_conditions_dont_fork () =
  let r =
    run (fun env ->
        if Engine.branch env (Expr.ult (c16 1) (c16 2)) then Engine.emit env "always")
  in
  Alcotest.(check int) "one path" 1 (path_count r);
  Alcotest.(check int) "no forks" 0 (List.hd r.Engine.results).Engine.decisions

let test_crash_recorded () =
  let r =
    run (fun env ->
        if Engine.branch env (Expr.eq x (c16 0xfffd)) then Engine.crash env "boom"
        else Engine.emit env "fine")
  in
  Alcotest.(check int) "two paths" 2 (path_count r);
  let crashed = List.filter (fun p -> p.Engine.crashed <> None) r.Engine.results in
  Alcotest.(check int) "one crash" 1 (List.length crashed);
  Alcotest.(check (option string)) "message" (Some "boom")
    (List.hd crashed).Engine.crashed

let test_stop_records_partial () =
  let r =
    run (fun env ->
        Engine.emit env "before";
        if Engine.branch env (Expr.ult x (c16 5)) then Engine.stop env;
        Engine.emit env "after")
  in
  Alcotest.(check int) "two paths" 2 (path_count r);
  let stopped = List.find (fun p -> p.Engine.events = [ "before" ]) r.Engine.results in
  Alcotest.(check bool) "stopped path not crashed" true (stopped.Engine.crashed = None)

let test_assume () =
  let r =
    run (fun env ->
        Engine.assume env (Expr.ult x (c16 10));
        if Engine.branch env (Expr.ult x (c16 20)) then Engine.emit env "implied"
        else Engine.emit env "unreachable")
  in
  Alcotest.(check int) "one path" 1 (path_count r);
  Alcotest.(check (list string)) "assume constrains" [ "implied" ]
    (List.hd r.Engine.results).Engine.events

let test_assume_infeasible_aborts () =
  let r =
    run (fun env ->
        Engine.assume env (Expr.ult x (c16 10));
        Engine.assume env (Expr.ugt x (c16 20));
        Engine.emit env "dead")
  in
  Alcotest.(check int) "no surviving path" 0 (path_count r);
  Alcotest.(check bool) "abort counted" true (r.Engine.stats.Engine.aborted >= 1)

let test_concretize () =
  let r =
    run (fun env ->
        Engine.assume env (Expr.ugt x (c16 100));
        Engine.assume env (Expr.ult x (c16 103));
        let v = Engine.concretize env x in
        Engine.emit env (Int64.to_string v))
  in
  Alcotest.(check int) "one path" 1 (path_count r);
  let v = Int64.of_string (List.hd (List.hd r.Engine.results).Engine.events) in
  Alcotest.(check bool) "value in range" true (v = 101L || v = 102L);
  (* the concretization constraint must appear in the path condition *)
  match Solver.check ((List.hd r.Engine.results).Engine.pc @ [ Expr.neq x (Expr.const ~width:16 v) ]) with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "pc must pin the concretized value"
  | Solver.Unknown _ -> Alcotest.fail "unbudgeted query returned Unknown"

let test_max_paths () =
  let program env =
    (* 16 paths from 4 independent branches *)
    for i = 0 to 3 do
      ignore (Engine.branch env (Expr.eq (Expr.extract ~hi:i ~lo:i x) (Expr.const ~width:1 1L)))
    done
  in
  let r = run ~max_paths:5 program in
  Alcotest.(check int) "budget respected" 5 (path_count r);
  let full = run ~max_paths:1000 program in
  Alcotest.(check int) "full exploration" 16 (path_count full)

let test_max_decisions_truncates () =
  let program env =
    (* unbounded symbolic loop *)
    let rec go i =
      if Engine.branch env (Expr.ult (c16 (i mod 7)) (Expr.add x (c16 i))) then go (i + 1)
      else go (i + 2)
    in
    ignore (go 0)
  in
  let r = run ~max_paths:3 ~max_decisions:20 program in
  Alcotest.(check bool) "truncated paths counted" true (r.Engine.stats.Engine.truncated > 0);
  Alcotest.(check int) "no results from truncated paths" 0 (path_count r)

let all_path_keys (r : string Engine.run_result) =
  List.sort compare
    (List.map
       (fun (p : string Engine.path_result) -> String.concat "," p.Engine.events)
       r.Engine.results)

let test_strategies_agree () =
  let program env =
    let a = Engine.branch env (Expr.ult x (c16 100)) in
    let b = Engine.branch env (Expr.ult y (c16 50)) in
    let c = Engine.branch env (Expr.eq (Expr.add x y) (c16 60)) in
    Engine.emit env (Printf.sprintf "%b%b%b" a b c)
  in
  let base = all_path_keys (run ~strategy:Strategy.Dfs program) in
  List.iter
    (fun strategy ->
      Alcotest.(check (list string))
        (Printf.sprintf "strategy %s finds the same paths" (Strategy.to_string strategy))
        base
        (all_path_keys (run ~strategy program)))
    [ Strategy.Bfs; Strategy.Random 7; Strategy.Interleave 13 ]

let test_coverage_marks () =
  let bpoint = Coverage.branch "test_unit" "b0" in
  let ipoint = Coverage.instr "test_unit" "i0" in
  let r =
    run (fun env ->
        Engine.cover env ipoint;
        if Engine.branch ~loc:bpoint env (Expr.ult x (c16 10)) then () else ())
  in
  Alcotest.(check bool) "instr covered" true (Coverage.covered r.Engine.coverage ipoint);
  Alcotest.(check bool) "both branch directions covered" true
    (Coverage.covered r.Engine.coverage bpoint.Coverage.on_true
     && Coverage.covered r.Engine.coverage bpoint.Coverage.on_false);
  let report = Coverage.report "test_unit" r.Engine.coverage in
  Alcotest.(check int) "instr total" 1 report.Coverage.instr_total;
  Alcotest.(check int) "branch total counts directions" 2 report.Coverage.branch_total

let test_stats_constraint_sizes () =
  let r =
    run (fun env ->
        ignore (Engine.branch env (Expr.ult x (c16 10)));
        ignore (Engine.branch env (Expr.eq y (c16 1))))
  in
  Alcotest.(check bool) "avg size positive" true
    (r.Engine.stats.Engine.avg_constraint_size > 0.0);
  Alcotest.(check bool) "max >= avg" true
    (float_of_int r.Engine.stats.Engine.max_constraint_size
     >= r.Engine.stats.Engine.avg_constraint_size)

(* replay determinism: running twice yields the same partition *)
let test_deterministic () =
  let program env =
    let a = Engine.branch env (Expr.ult x (c16 256)) in
    let b = Engine.branch env (Expr.eq (Expr.logand y (c16 1)) (c16 1)) in
    Engine.emit env (Printf.sprintf "%b%b" a b)
  in
  Alcotest.(check (list string)) "deterministic partition" (all_path_keys (run program))
    (all_path_keys (run program))

(* Witness mode: one run of the program, every decision read off the
   model, and no solver work at all. *)
let solver_work () =
  let s = Solver.stats () in
  (s.Solver.queries, s.Solver.sat_calls)

let witness bindings =
  Model.of_bindings (List.map (fun (name, v) -> (Expr.make_var name 16, v)) bindings)

let two_branches env =
  let a = Engine.branch env (Expr.ult x (c16 10)) in
  let b = Engine.branch env (Expr.eq y (c16 0)) in
  let v = Engine.concretize env (Expr.add x y) in
  Engine.emit env (Printf.sprintf "%b%b%Ld" a b v)

let test_witness_single_path () =
  let before = solver_work () in
  let r = Engine.run ~concrete:(witness [ ("engx", 5L) ]) two_branches in
  Alcotest.(check int) "exactly one path" 1 (path_count r);
  Alcotest.(check int) "no forks" 0 r.Engine.stats.Engine.forks;
  Alcotest.(check bool) "no solver queries" true (solver_work () = before)

let test_witness_follows_model () =
  let events w =
    List.concat_map (fun p -> p.Engine.events) (Engine.run ~concrete:w two_branches).Engine.results
  in
  (* engy is unbound: it reads as 0, as in Testcase concretization *)
  Alcotest.(check (list string)) "x=5, y unbound" [ "truetrue5" ]
    (events (witness [ ("engx", 5L) ]));
  Alcotest.(check (list string)) "x=50, y=3" [ "falsefalse53" ]
    (events (witness [ ("engx", 50L); ("engy", 3L) ]));
  Alcotest.(check (list string)) "empty model: everything 0" [ "truetrue0" ]
    (events (Model.empty ()))

let test_witness_assume_falsified () =
  let before = solver_work () in
  let r =
    Engine.run ~concrete:(witness [ ("engx", 5L) ]) (fun env ->
        Engine.assume env (Expr.ult x (c16 100));
        Engine.assume env (Expr.eq x (c16 7));
        Engine.emit env "unreachable")
  in
  Alcotest.(check int) "falsified assume kills the path" 0 (path_count r);
  Alcotest.(check int) "abort counted" 1 r.Engine.stats.Engine.aborted;
  Alcotest.(check bool) "no solver queries" true (solver_work () = before)

(* Deferred paths inherit their fork's model.  Two independent branches
   under DFS: the root path solves one arm at each (the empty model picks
   the other), the deferred [x >= 10] path starts from the model its fork
   solved, so its first new branch (on [y]) solves one arm too; replayed
   branches solve nothing.  Three SAT calls in all — without the
   inherited model the deferred path would solve both arms of [y = 7]. *)
let test_deferred_path_inherits_model () =
  Solver.clear_cache ();
  let sat_calls () = (Solver.stats ()).Solver.sat_calls in
  let before = sat_calls () in
  let r =
    run ~strategy:Strategy.Dfs (fun env ->
        let a = Engine.branch env (Expr.ult x (c16 10)) in
        let n0 = sat_calls () in
        let b = Engine.branch env (Expr.eq y (c16 7)) in
        Engine.emit env (Printf.sprintf "%b%b:%d" a b (sat_calls () - n0)))
  in
  let events = List.concat_map (fun p -> p.Engine.events) r.Engine.results in
  Alcotest.(check (list string)) "one solve at each new y-branch, none on replay"
    [ "truetrue:1"; "truefalse:0"; "falsetrue:1"; "falsefalse:0" ]
    events;
  Alcotest.(check int) "forks" 3 r.Engine.stats.Engine.forks;
  Alcotest.(check int) "sat calls (run stats)" 3 r.Engine.stats.Engine.solver_sat_calls;
  Alcotest.(check int) "sat calls (solver stats)" 3 (sat_calls () - before)

(* Packet Out exploration pinned: path count, forks and aborts are those of
   an engine that restarts every deferred path from an empty model (model
   choice never changes which arms are feasible); the SAT call counts are
   what inheriting the fork's model brings them down to (406, 373, 480
   and 410 from an empty model). *)
let test_packet_out_exploration_pinned () =
  let spec = Harness.Test_spec.packet_out () in
  List.iter
    (fun (name, agent, strategy, forks, sat_calls) ->
      Solver.clear_cache ();
      let r = Harness.Runner.execute ~max_paths:200 ~strategy agent spec in
      let s = r.Harness.Runner.run_stats in
      let check what = Alcotest.(check int) (name ^ " " ^ what) in
      check "paths" 200 s.Engine.path_count;
      check "forks" forks s.Engine.forks;
      check "aborted" 0 s.Engine.aborted;
      check "sat_calls" sat_calls s.Engine.solver_sat_calls)
    [
      ("ref random:1", Switches.Reference_switch.agent, Strategy.Random 1, 234, 238);
      ("ref dfs", Switches.Reference_switch.agent, Strategy.Dfs, 203, 207);
      ("ovs random:1", Switches.Open_vswitch.agent, Strategy.Random 1, 256, 327);
      ("ovs dfs", Switches.Open_vswitch.agent, Strategy.Dfs, 204, 248);
    ]

let test_strategy_of_string () =
  let check_some msg expected s =
    match Strategy.of_string s with
    | Some st -> Alcotest.(check string) msg expected (Strategy.to_string st)
    | None -> Alcotest.failf "%s: %S rejected" msg s
  in
  check_some "dfs" "dfs" "dfs";
  check_some "bare random keeps the historical seed" "random:42" "random";
  check_some "explicit random seed" "random:7" "random:7";
  check_some "explicit interleave seed" "interleave:9" "interleave:9";
  check_some "default" "interleave:42" "default";
  (* round-trip: to_string output always parses back to the same strategy *)
  List.iter
    (fun st -> check_some "round-trip" (Strategy.to_string st) (Strategy.to_string st))
    [ Strategy.Dfs; Strategy.Bfs; Strategy.Random 3; Strategy.Interleave 5 ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true (Strategy.of_string s = None))
    [ "random:"; "random:x"; "dfs:3"; "cloud9"; "interleave:4.5" ]

let suite =
  [
    Alcotest.test_case "no branch" `Quick test_no_branch;
    Alcotest.test_case "single branch" `Quick test_single_branch;
    Alcotest.test_case "infeasible pruning" `Quick test_infeasible_pruning;
    Alcotest.test_case "path conditions sound" `Quick test_path_conditions_sound;
    Alcotest.test_case "concrete conditions don't fork" `Quick test_concrete_conditions_dont_fork;
    Alcotest.test_case "crash recorded" `Quick test_crash_recorded;
    Alcotest.test_case "stop records partial trace" `Quick test_stop_records_partial;
    Alcotest.test_case "assume" `Quick test_assume;
    Alcotest.test_case "assume infeasible aborts" `Quick test_assume_infeasible_aborts;
    Alcotest.test_case "concretize" `Quick test_concretize;
    Alcotest.test_case "max_paths budget" `Quick test_max_paths;
    Alcotest.test_case "max_decisions truncates" `Quick test_max_decisions_truncates;
    Alcotest.test_case "strategies agree on path set" `Quick test_strategies_agree;
    Alcotest.test_case "coverage marks" `Quick test_coverage_marks;
    Alcotest.test_case "constraint size stats" `Quick test_stats_constraint_sizes;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "strategy parsing round-trips" `Quick test_strategy_of_string;
    Alcotest.test_case "witness mode takes one path" `Quick test_witness_single_path;
    Alcotest.test_case "witness mode follows the model" `Quick test_witness_follows_model;
    Alcotest.test_case "witness mode: falsified assume kills" `Quick
      test_witness_assume_falsified;
    Alcotest.test_case "deferred path inherits its fork's model" `Quick
      test_deferred_path_inherits_model;
    Alcotest.test_case "packet_out exploration pinned" `Quick
      test_packet_out_exploration_pinned;
  ]
