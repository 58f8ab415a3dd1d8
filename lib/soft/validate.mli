(** Replay-confirmed inconsistencies.

    Every crosscheck inconsistency carries a concrete witness input
    (paper §4.2: a replayable test case).  Validation runs each agent once
    on that witness, deciding every branch by evaluation, and compares the
    concrete normalized traces, so a reported divergence no longer rests
    on trusting the solver, the grouping, or witness extraction:

    - [Confirmed]: the concrete traces differ — the finding stands;
    - [Refuted]: the concrete traces are identical — the report is wrong
      somewhere in the pipeline and must not be presented as a finding;
    - [Replay_failed]: re-execution could not reproduce a claimed path
      (an engine-fatal agent exception, the engine's decision cap, or an
      assumption the witness falsifies) — the report is suspect and counts
      as unvalidated. *)

type status =
  | Confirmed
  | Refuted
  | Replay_failed of string  (** which agent failed to replay, and why *)

type result = {
  v_inc : Crosscheck.inconsistency;
  v_status : status;
  v_replay_a : Openflow.Trace.result option;
      (** agent A's concrete replay trace, when replay reached one *)
  v_replay_b : Openflow.Trace.result option;
}

type summary = {
  vs_agent_a : string;
  vs_agent_b : string;
  vs_test : string;
  vs_confirmed : int;
  vs_refuted : int;
  vs_failed : int;
  vs_results : result list;
}

val status_name : status -> string

val validate_one :
  Switches.Agent_intf.t ->
  Switches.Agent_intf.t ->
  Harness.Test_spec.t ->
  Crosscheck.inconsistency ->
  result
(** Replay one inconsistency's witness through both agents
    ({!Harness.Runner.execute_replay}) and compare the concrete traces.
    [Out_of_memory] propagates; any other replay exception becomes
    [Replay_failed]. *)

val validate :
  Switches.Agent_intf.t ->
  Switches.Agent_intf.t ->
  Harness.Test_spec.t ->
  Crosscheck.outcome ->
  summary
(** Validate every inconsistency of a crosscheck outcome (no solver query). *)

val unconfirmed : summary -> int
(** Refuted + replay-failed; nonzero means the inconsistency report
    cannot be fully trusted as-is. *)

val all_confirmed : summary -> bool

val pp_result : Format.formatter -> result -> unit
val pp : Format.formatter -> summary -> unit
