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
   branches solve nothing.  Three arm queries in all — without the
   inherited model the deferred path would query both arms of [y = 7].
   Queries, not SAT calls, are counted: the [y] arm shares no variable
   with [x < 10] or [x >= 10], so both paths send it alone and the second
   is a cache hit. *)
let test_deferred_path_inherits_model () =
  Solver.clear_cache ();
  let queries () = (Solver.stats ()).Solver.queries in
  let sat_calls () = (Solver.stats ()).Solver.sat_calls in
  let q0 = queries () and s0 = sat_calls () in
  let r =
    run ~strategy:Strategy.Dfs (fun env ->
        let a = Engine.branch env (Expr.ult x (c16 10)) in
        let n0 = queries () in
        let b = Engine.branch env (Expr.eq y (c16 7)) in
        Engine.emit env (Printf.sprintf "%b%b:%d" a b (queries () - n0)))
  in
  let events = List.concat_map (fun p -> p.Engine.events) r.Engine.results in
  Alcotest.(check (list string)) "one query at each new y-branch, none on replay"
    [ "truetrue:1"; "truefalse:0"; "falsetrue:1"; "falsefalse:0" ]
    events;
  Alcotest.(check int) "forks" 3 r.Engine.stats.Engine.forks;
  Alcotest.(check int) "arm queries" 3 (queries () - q0);
  Alcotest.(check int) "sat calls (run stats)" 2 r.Engine.stats.Engine.solver_sat_calls;
  Alcotest.(check int) "sat calls (solver stats)" 2 (sat_calls () - s0)

(* Constraint independence: an arm query carries every constraint linked
   to it through shared variables, transitively.  [x = y] reaches
   [z = 5] only through [y = z + 1]: a slice that kept only [y]'s direct
   neighbour would solve for some [z] other than 5, and the merged model
   would fail the engine's check against the whole path condition. *)
let test_slice_is_transitive () =
  let z = Expr.var ~width:16 "engz" in
  let r =
    run (fun env ->
        Engine.assume env (Expr.eq z (c16 5));
        Engine.assume env (Expr.eq y (Expr.add z (c16 1)));
        if Engine.branch env (Expr.eq x y) then
          Engine.emit env (Int64.to_string (Engine.concretize env x))
        else Engine.emit env "differ")
  in
  Alcotest.(check (list string)) "both arms, x pinned through y to z" [ "6"; "differ" ]
    (List.concat_map (fun p -> p.Engine.events) r.Engine.results)

(* Property: a sliced arm answer is the full query's answer.  Two disjoint
   families of 8-bit variables, each a chain (a constraint links [v_i] and
   [v_i+1] or reads one of them), so slices reach across several
   constraints and leave the other family out.  The program assumes the
   constraints, then branches on [extra]: the path survives the assumes iff
   they are jointly Sat, each arm is taken iff [Solver.check] on the whole
   query says Sat, and the model the engine holds after the branch (read
   back through [concretize]) satisfies the whole path condition. *)
let slice_var fam i = Expr.var ~width:8 (Printf.sprintf "slc_%c%d" fam i)

let slice_vars = List.concat_map (fun f -> List.init 4 (slice_var f)) [ 'a'; 'b' ]

let slice_cond_gen =
  let open QCheck2.Gen in
  let* fam = oneofl [ 'a'; 'b' ] in
  let* i = int_range 0 2 in
  let* link = bool in
  let* op = Gen.cmp_gen in
  let* bop = oneofl Expr.[ Add; Sub; Xorb; Andb ] in
  let+ c = int_range 0 255 in
  let lhs =
    if link then Expr.binop bop (slice_var fam i) (slice_var fam (i + 1))
    else slice_var fam (i + 1)
  in
  Expr.cmp op lhs (Expr.const ~width:8 (Int64.of_int c))

let prop_slice_matches_full =
  QCheck2.Test.make ~name:"sliced arm answers match the full query" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 6) slice_cond_gen) slice_cond_gen)
    (fun (cs, extra) ->
      let r =
        Engine.run ~strategy:Strategy.Dfs (fun env ->
            List.iter (Engine.assume env) cs;
            let d = Engine.branch env extra in
            let pc = Engine.path_condition env in
            let values = List.map (fun e -> (e, Engine.concretize env e)) slice_vars in
            Engine.emit env (d, pc, values))
      in
      let sat conds =
        match Solver.check conds with
        | Solver.Sat _ -> true
        | Solver.Unsat -> false
        | Solver.Unknown _ -> QCheck2.Test.fail_report "unbudgeted query returned Unknown"
      in
      let expected =
        if not (sat cs) then []
        else
          List.filter
            (fun d -> sat ((if d then extra else Expr.not_ extra) :: cs))
            [ true; false ]
      in
      let events = List.concat_map (fun p -> p.Engine.events) r.Engine.results in
      List.sort compare (List.map (fun (d, _, _) -> d) events) = List.sort compare expected
      && List.for_all
           (fun (_, pc, values) -> Model.satisfies (Gen.model_of_assignment values) pc)
           events)

(* Packet Out exploration pinned: path count, forks and aborts are those of
   an engine that restarts every deferred path from an empty model and
   sends every arm query the whole path condition (model choice and
   slicing never change which arms are feasible).  The SAT call counts are
   what inheriting the fork's model and slicing each arm query to the
   constraints it shares variables with bring them down to: 406, 373, 480
   and 410 from an empty model, 238, 207, 327 and 248 unsliced; the
   slices repeat across paths, so the exact cache answers the rest. *)
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
      ("ref random:1", Switches.Reference_switch.agent, Strategy.Random 1, 234, 55);
      ("ref dfs", Switches.Reference_switch.agent, Strategy.Dfs, 203, 41);
      ("ovs random:1", Switches.Open_vswitch.agent, Strategy.Random 1, 256, 50);
      ("ovs dfs", Switches.Open_vswitch.agent, Strategy.Dfs, 204, 35);
    ]

(* Phase-1 output pinned byte for byte: the MD5 of the [Serialize] file of
   ref, ovs and modified on packet_out and flow_mod (200 paths, random:1),
   recorded before arm queries were sliced.  Models steer only which arm
   gets solved, never which paths exist, so no solver-side change may move
   these.  The digests come from [phase1_digest.exe], built beside this
   executable: a fresh process, because the trace keys embed expression
   ids and so depend on everything interned before. *)
let test_phase1_output_pinned () =
  let out = Filename.temp_file "phase1" ".txt" in
  let code =
    Sys.command
      (Filename.quote_command
         (Filename.concat (Filename.dirname Sys.executable_name) "phase1_digest.exe")
         ~stdout:out [])
  in
  let lines = In_channel.with_open_text out In_channel.input_lines in
  Sys.remove out;
  Alcotest.(check int) "digest process exit" 0 code;
  Alcotest.(check (list string)) "Serialize MD5 per agent and test"
    [
      "reference packet_out 8965031d747ceac0a29e6e5fb1f77db3";
      "ovs packet_out c4db9389fccfd42301533f9faefd7bf0";
      "modified packet_out cf1b73962cc1e533389f8ca697826632";
      "reference flow_mod 78257e12fc1ff30e3657271b5393f88b";
      "ovs flow_mod 80af0591cd812d17d4350ba4fc104671";
      "modified flow_mod b1abbf229972b834508af01f4b8a5028";
    ]
    lines

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
    Alcotest.test_case "phase-1 output pinned" `Quick test_phase1_output_pinned;
    Alcotest.test_case "arm slice is transitive" `Quick test_slice_is_transitive;
    QCheck_alcotest.to_alcotest prop_slice_matches_full;
  ]
