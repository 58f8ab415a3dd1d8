(** Replay-confirmed inconsistencies.

    Every crosscheck inconsistency carries a concrete witness input
    (paper §4.2: a replayable test case).  Validation runs each agent on
    that witness and compares the two normalized trace keys
    ({!Openflow.Trace.result_key}) as strings, so a reported divergence no
    longer rests on trusting the solver, the grouping, or witness
    extraction:

    - [Confirmed]: the replayed keys differ — the finding stands;
    - [Refuted]: the replayed keys are identical — the report is wrong
      somewhere in the pipeline and must not be presented as a finding;
    - [Replay_failed]: re-execution could not reproduce a claimed path
      (an engine-fatal agent exception, the engine's decision cap, or an
      assumption the witness falsifies) — the report is suspect and counts
      as unvalidated.

    {!validate} replays the symbolic inputs under the witness, so its
    keys keep symbolic residue (e.g. [dp:tx(e159,...)]): two agents that
    compute the same value by different expressions still compare as
    different.  {!validate_reproducers} replays the concrete reproducer
    bytes instead. *)

type status =
  | Confirmed
  | Refuted
  | Replay_failed of string  (** which agent failed to replay, and why *)

type result = {
  v_inc : Crosscheck.inconsistency;
  v_status : status;
  v_replay_a : Openflow.Trace.result option;
      (** agent A's replayed trace, when replay reached one *)
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
    ({!Harness.Runner.execute_replay}) and compare their trace keys.
    [Out_of_memory] propagates; any other replay exception becomes
    [Replay_failed]. *)

val validate :
  Switches.Agent_intf.t ->
  Switches.Agent_intf.t ->
  Harness.Test_spec.t ->
  Crosscheck.outcome ->
  summary
(** Validate every inconsistency of a crosscheck outcome (no solver query). *)

val validate_reproducers :
  Switches.Agent_intf.t ->
  Switches.Agent_intf.t ->
  Harness.Test_spec.t ->
  Crosscheck.outcome ->
  summary
(** Validate every inconsistency on its concrete reproducer: each input
    of the spec is concretized under the witness and decoded back
    ({!Openflow.Sym_msg.concretize_wire} then {!Openflow.Sym_msg.of_wire}
    for messages, the concrete packet for probes), so the agents see
    constants only — exactly the bytes [--cases] prints.  Each agent runs
    once through {!Harness.Runner.execute} and the first path's trace key
    is compared.  A reproducer that fails to decode, raises, or reaches no
    path is [Replay_failed].  This is stricter than {!validate}: it
    refutes pairs whose symbolic keys differ only syntactically. *)

val unconfirmed : summary -> int
(** Refuted + replay-failed; nonzero means the inconsistency report
    cannot be fully trusted as-is. *)

val all_confirmed : summary -> bool

val pp_result : Format.formatter -> result -> unit
val pp : Format.formatter -> summary -> unit
(** Titled ["validation"]. *)

val pp_titled : string -> Format.formatter -> summary -> unit
(** {!pp} under another title, e.g. ["reproducer validation"]. *)
