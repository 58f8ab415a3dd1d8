(** SOFT phase 1: drive one agent over one test spec under the symbolic
    execution engine (the "test driver" of paper §4.1).  The emulated
    controller establishes the connection, injects each symbolic message,
    probe, and time step, and the engine delivers every explored path's
    condition and normalized output trace. *)

type path_record = {
  pr_result : Openflow.Trace.result;  (** normalized output trace *)
  pr_cond : Smt.Expr.boolean;  (** balanced-conjunction path condition *)
  pr_constraints : Smt.Expr.boolean list;  (** conjuncts, in order *)
  pr_size : int;  (** boolean operations in [pr_cond] (Table-2 metric) *)
}

type run = {
  run_agent : string;
  run_test : string;
  run_paths : path_record list;
  run_stats : Symexec.Engine.run_stats;
  run_coverage : Symexec.Coverage.set;
}

val default_max_paths : int
(** Per-test path budget.  The authors' testbed let the largest tests run
    to hundreds of thousands of paths over days; this keeps the
    reproduction interactive while preserving relative orderings — SOFT
    explicitly tolerates partial path coverage (paper §4.1). *)

val drive :
  Switches.Agent_intf.t ->
  Test_spec.t ->
  Openflow.Trace.event Symexec.Engine.env ->
  unit
(** The program handed to the engine: init, connection setup, then the
    spec's inputs in order. *)

val execute :
  ?max_paths:int ->
  ?strategy:Symexec.Strategy.t ->
  ?use_interval:bool ->
  ?deadline_ms:int ->
  ?solver_budget:Smt.Solver.budget ->
  Switches.Agent_intf.t ->
  Test_spec.t ->
  run
(** [deadline_ms] bounds the run's wall-clock exploration time;
    [solver_budget] bounds each feasibility query (see
    {!Symexec.Engine.run}). *)

val execute_replay :
  Switches.Agent_intf.t ->
  Test_spec.t ->
  witness:Smt.Model.t ->
  Openflow.Trace.result option
(** Run [agent] on [spec] once in the engine's witness mode
    ({!Symexec.Engine.run} [~concrete:witness], no solver call), every
    witness binding pinned first, and return that path's normalized trace
    — [None] (replay failure) if an assumption is falsified or the path
    exceeds the decision cap.  Validation uses this to confirm reported
    inconsistencies by concrete re-execution (paper §4.2). *)

type failure = {
  f_agent : string;
  f_test : string;
  f_error : string;  (** printed exception *)
  f_backtrace : string;
}
(** A whole-run failure: the agent (or the stack under it) raised outside
    the engine's per-path isolation. *)

val pp_failure : Format.formatter -> failure -> unit

val execute_safe :
  ?max_paths:int ->
  ?strategy:Symexec.Strategy.t ->
  ?use_interval:bool ->
  ?deadline_ms:int ->
  ?solver_budget:Smt.Solver.budget ->
  Switches.Agent_intf.t ->
  Test_spec.t ->
  (run, failure) result
(** Like {!execute}, but any exception escaping the run is captured as a
    {!failure} record instead of aborting the caller ([Out_of_memory]
    still propagates).  One crashing agent must not lose a suite. *)

val coverage_report : run -> Symexec.Coverage.report

val constraint_sizes : run -> float * int
(** [(average, maximum)] constraint size over the run's paths. *)
