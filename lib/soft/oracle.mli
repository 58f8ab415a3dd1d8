(** Invariant oracles and workloads for fault-schedule exploration
    ({!Harness.Explore}).

    The generic explore driver lives in the harness layer and knows
    nothing about crosschecks; this module supplies the SOFT-side
    plumbing: an observation type capturing everything the oracles judge,
    the oracles themselves, and named workload builders the CLI, tests
    and CI share.

    The oracles are the system's standing robustness contracts:
    - {b chaos only grows undecided} — no invented inconsistency, no
      verdict lost to anything but the undecided set, same pairs
      compared (the soundness contract of {!Harness.Chaos});
    - {b kill-and-recover byte identity} — a fault-free resume from
      whatever checkpoint survived the faulted run must reproduce the
      clean run's {!Crosscheck.render_stable} bytes exactly;
    - {b exit-code taxonomy} — the outcome's exit status must equal
      {!Report.exit_of_counts} of its own counters;
    - {b bounded wall clock} — the run finishes within its time bound
      instead of hanging. *)

type obs = {
  ob_stable : string;  (** {!Crosscheck.render_stable} of the faulted run *)
  ob_recovered : string;  (** stable render of the fault-free resume leg *)
  ob_incs : (string * string) list;  (** result-key pairs found inconsistent *)
  ob_pairs_checked : int;
  ob_undecided : (string * string) list;
  ob_faults : int;  (** faulted pairs *)
  ob_exit : int;  (** {!Report.exit_status} of the faulted run *)
  ob_wall_s : float;  (** wall-clock seconds for the whole observation *)
  ob_signal : string list;
      (** free-form workload-specific signal (synthetic workloads encode
          their fired sites here); empty for crosscheck workloads *)
}

val observe : ?recovered:string -> ?wall_s:float -> Crosscheck.outcome -> obs
(** Project an outcome into an observation.  [recovered] defaults to the
    outcome's own stable render (i.e. "no separate recovery leg"). *)

val oracles : ?max_wall_s:float -> baseline:obs -> obs -> string list
(** The four standing invariants above; [[]] means all hold.
    [max_wall_s] (default 300) bounds [ob_wall_s]. *)

val crosscheck_workload :
  ?max_paths:int ->
  ?jobs:int ->
  ?max_wall_s:float ->
  a:Switches.Agent_intf.t ->
  b:Switches.Agent_intf.t ->
  Harness.Test_spec.t ->
  obs Harness.Explore.workload
(** The canonical exploration workload: crosscheck [a] vs [b] on the
    test.  Phase 1 runs once at construction time ({e outside} any chaos
    plan — construct the workload before installing one); each [w_run]
    then crosschecks the cached groups under the active plan with a
    checkpoint leg, resets the clock skew, and re-runs a fault-free
    resume from the surviving checkpoint for the recovery oracle.
    Draw sites therefore cover the crosscheck phase: per-pair keyed
    solver faults, clock jumps, and checkpoint truncation.
    [max_paths] defaults to {!Harness.Runner.default_max_paths}; [jobs]
    (default 1) is the crosscheck worker count. *)

val synthetic_pair_workload : unit -> obs Harness.Explore.workload
(** A pure-draw workload for exercising the explorer itself (and the
    committed repro corpus): it makes a fixed pattern of keyed
    solver-fault draws and violates its oracle exactly when the sites
    (key 3, index 0) and (key 7, index 0) {e both} fire — the known
    two-site minimum every shrink must converge to.  Runs in
    microseconds; no solver work. *)

val workloads : unit -> string list
(** The names {!workload} resolves: every test id plus
    ["synthetic-pair"]. *)

val workload :
  ?max_paths:int ->
  ?jobs:int ->
  ?max_wall_s:float ->
  a:Switches.Agent_intf.t ->
  b:Switches.Agent_intf.t ->
  string ->
  (obs Harness.Explore.workload, string) result
(** Resolve a workload by name: a test id builds
    {!crosscheck_workload} for [a] vs [b]; ["synthetic-pair"] builds
    {!synthetic_pair_workload}.  [Error] names the valid choices. *)
