(* SOFT phase 1: drive one agent over one test spec under the symbolic
   execution engine — the "test driver" of §4.1.  The emulated controller
   establishes the connection, injects each symbolic message and probe, and
   the engine delivers every explored path's condition and normalized
   output trace. *)

open Smt
module Engine = Symexec.Engine
module Coverage = Symexec.Coverage
module Strategy = Symexec.Strategy
module Trace = Openflow.Trace
module Agent_intf = Switches.Agent_intf

type path_record = {
  pr_result : Trace.result; (* normalized output trace *)
  pr_cond : Expr.boolean; (* the path condition, as a balanced conjunction *)
  pr_constraints : Expr.boolean list; (* individual conjuncts, in order *)
  pr_size : int; (* boolean operations in [pr_cond] (Table 2 metric) *)
}

type run = {
  run_agent : string;
  run_test : string;
  run_paths : path_record list;
  run_stats : Engine.run_stats;
  run_coverage : Coverage.set;
}

(* Default per-test path budget.  The authors' testbed let the largest
   tests run to hundreds of thousands of paths over days; the budget keeps
   the reproduction interactive while preserving relative orderings.  SOFT
   explicitly tolerates partial path coverage (paper §4.1). *)
let default_max_paths = 20000

let drive (module A : Agent_intf.S) (spec : Test_spec.t) env =
  let st = A.init () in
  let st = A.connection_setup env st in
  let final =
    List.fold_left
      (fun st input ->
        (* fault injection: an agent step may raise.  Injected_fault is
           engine-fatal, so this aborts the whole run loudly rather than
           recording a crash path that would look like agent behaviour. *)
        Chaos.maybe_raise Chaos.Agent_step;
        match input with
        | Test_spec.Msg m -> A.handle_message env st m
        | Test_spec.Probe { pr_id; pr_in_port; pr_packet } ->
          A.handle_packet env st ~probe_id:pr_id
            ~in_port:(Expr.const ~width:16 (Int64.of_int pr_in_port))
            pr_packet
        | Test_spec.Advance_time seconds -> A.advance_time env st ~seconds)
      st spec.Test_spec.inputs
  in
  ignore final

let execute ?(max_paths = default_max_paths) ?(strategy = Strategy.default)
    ?(use_interval = true) ?deadline_ms ?solver_budget (agent : Agent_intf.t)
    (spec : Test_spec.t) =
  let (module A) = agent in
  let result =
    Engine.run ~strategy ~max_paths ~use_interval ?deadline_ms ?solver_budget
      (drive agent spec)
  in
  let paths =
    List.map
      (fun (r : Trace.event Engine.path_result) ->
        {
          pr_result = Normalize.result ?crash:r.Engine.crashed r.Engine.events;
          pr_cond = r.Engine.path_cond;
          pr_constraints = r.Engine.pc;
          pr_size = Expr.bool_size r.Engine.path_cond;
        })
      result.Engine.results
  in
  {
    run_agent = A.name;
    run_test = spec.Test_spec.id;
    run_paths = paths;
    run_stats = result.Engine.stats;
    run_coverage = result.Engine.coverage;
  }

(* Replay: run one agent once on [spec] in the engine's witness mode, every
   branch decided by evaluating it under the witness, and return the
   normalized trace of that one path.  Used by validation to confirm a
   reported inconsistency by actually running both agents on the concrete
   test case.  Every witness binding is still [assume]d as [v = value]
   before the drive: the pins intern the witness constants, and interning
   order reaches later witnesses' bytes (see DESIGN 5.2).  The path is kept
   only if its condition holds under the witness (absent variables read as
   zero, matching [Testcase] concretization). *)
let execute_replay (agent : Agent_intf.t) (spec : Test_spec.t) ~(witness : Model.t) =
  let pinned env =
    List.iter
      (fun (v, value) ->
        Engine.assume env
          (Expr.eq (Expr.of_var v) (Expr.const ~width:(Expr.var_width v) value)))
      (Model.bindings witness);
    drive agent spec env
  in
  List.find_map
    (fun (r : Trace.event Engine.path_result) ->
      if Model.eval_bool witness r.Engine.path_cond then
        Some (Normalize.result ?crash:r.Engine.crashed r.Engine.events)
      else None)
    (Engine.run ~concrete:witness pinned).Engine.results

(* Crash isolation at the run boundary.  The engine already contains
   per-path exceptions; what still escapes it — an agent's [init] or
   [connection_setup] raising, a solver soundness violation, a corrupted
   spec — would otherwise abort a whole suite.  [execute_safe] converts any
   such escape into a per-run failure record so the caller can keep going
   and report which (agent, test) runs were lost. *)
type failure = {
  f_agent : string;
  f_test : string;
  f_error : string;
  f_backtrace : string;
}

let pp_failure fmt f =
  Format.fprintf fmt "%s on %s FAILED: %s" f.f_agent f.f_test f.f_error

let execute_safe ?max_paths ?strategy ?use_interval ?deadline_ms ?solver_budget agent
    (spec : Test_spec.t) =
  let (module A : Agent_intf.S) = agent in
  match execute ?max_paths ?strategy ?use_interval ?deadline_ms ?solver_budget agent spec with
  | r -> Ok r
  | exception Out_of_memory -> raise Out_of_memory
  | exception e ->
    Error
      {
        f_agent = A.name;
        f_test = spec.Test_spec.id;
        f_error = Printexc.to_string e;
        f_backtrace = Printexc.get_backtrace ();
      }

let coverage_report (r : run) = Coverage.report r.run_agent r.run_coverage

(* Constraint-size statistics for Table 2. *)
let constraint_sizes (r : run) =
  let sizes = List.map (fun p -> p.pr_size) r.run_paths in
  match sizes with
  | [] -> (0.0, 0)
  | _ ->
    let total = List.fold_left ( + ) 0 sizes in
    (float_of_int total /. float_of_int (List.length sizes), List.fold_left max 0 sizes)
