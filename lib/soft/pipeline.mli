(** The end-to-end SOFT pipeline (the paper's Figure 3): symbolically
    execute each agent on a test, group path conditions by output result,
    and crosscheck the groups through the solver.  The [run]/[group]/[check]
    stages are also exposed individually (via {!Harness.Runner},
    {!Grouping}, {!Crosscheck}) for the decoupled vendor workflow. *)

type comparison = {
  c_test : Harness.Test_spec.t;
  c_run_a : Harness.Runner.run;
  c_run_b : Harness.Runner.run;
  c_grouped_a : Grouping.grouped;
  c_grouped_b : Grouping.grouped;
  c_outcome : Crosscheck.outcome;
  c_validation : Validate.summary option;
      (** replay validation of the found inconsistencies; [Some] only when
          requested via [~validate:true] (and never from {!compare_runs},
          which has no agents to re-execute) *)
}

val compare_runs :
  ?split:int ->
  ?budget:Smt.Solver.budget ->
  ?checkpoint:string ->
  ?resume:string ->
  ?jobs:int ->
  ?incremental:bool ->
  ?supervise:Harness.Supervise.policy ->
  ?on_warning:(string -> unit) ->
  Harness.Test_spec.t ->
  Harness.Runner.run ->
  Harness.Runner.run ->
  comparison
(** Phase 2 only, over existing phase-1 runs.  The optional arguments
    (including [jobs], the crosscheck worker-domain count, [incremental],
    the per-row session toggle, and [supervise], the watchdog policy) are
    forwarded to {!Crosscheck.check}. *)

val compare_agents :
  ?max_paths:int ->
  ?strategy:Symexec.Strategy.t ->
  ?deadline_ms:int ->
  ?solver_budget:Smt.Solver.budget ->
  ?split:int ->
  ?jobs:int ->
  ?incremental:bool ->
  ?supervise:Harness.Supervise.policy ->
  ?validate:bool ->
  Switches.Agent_intf.t ->
  Switches.Agent_intf.t ->
  Harness.Test_spec.t ->
  comparison
(** Both phases in one process.  [deadline_ms] bounds each agent's
    exploration wall clock; [solver_budget] bounds every solver query in
    both phases.  [jobs] (default 1): with more than one job, the two
    agents' phase-1 explorations run concurrently on separate domains
    (each with its own solver context) and the crosscheck runs at
    [jobs] workers; agent A's exception still wins deterministically when
    both fail.  [incremental] is forwarded to {!Crosscheck.check}.
    [validate] (default false) replays every found inconsistency's witness
    through both agents and records the {!Validate.summary}. *)

type suite_result = {
  sr_comparisons : comparison list;  (** tests where both runs completed *)
  sr_failures : Harness.Runner.failure list;
      (** crash-isolated runs that raised; the suite continued without them *)
}

val compare_suite :
  ?max_paths:int ->
  ?strategy:Symexec.Strategy.t ->
  ?deadline_ms:int ->
  ?solver_budget:Smt.Solver.budget ->
  ?split:int ->
  ?jobs:int ->
  ?incremental:bool ->
  ?supervise:Harness.Supervise.policy ->
  ?validate:bool ->
  Switches.Agent_intf.t ->
  Switches.Agent_intf.t ->
  Harness.Test_spec.t list ->
  suite_result
(** Run a whole suite.  Each agent execution is crash-isolated: one
    crashing or diverging run yields a failure record, not a lost suite.
    [jobs] parallelizes as in {!compare_agents}; when agent A's run fails
    under [jobs > 1], agent B's concurrent result is discarded so the
    recorded failure is the same one a sequential run reports. *)

val test_cases : comparison -> Testcase.t list
(** One concrete reproducer per inconsistency found. *)

val inconsistency_count : comparison -> int
val summaries : comparison -> Report.summary list
val pp_comparison : Format.formatter -> comparison -> unit
val pp_suite : Format.formatter -> suite_result -> unit
