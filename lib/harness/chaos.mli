(** Deterministic internal fault injection.

    A seeded {!plan} decides, at five keyed injection points, whether a
    fault fires: a solver query raising, an agent input step raising, a
    checkpoint file truncating right after its write, the monotonic
    clock jumping past every deadline, and a solver task hanging until
    the supervision watchdog kills it.  Each point draws from its own
    stream seeded from [(seed, point)], so one point's schedule does not
    shift another's and a seed reproduces the exact fault pattern.

    Soundness contract (asserted by the chaos test): injected faults may
    only ever move crosscheck pairs to undecided — never flip a verdict.
    {!Injected_fault} is registered as engine-fatal so an agent-step
    fault aborts a run loudly instead of masquerading as agent behaviour,
    and solver faults/clock jumps are delivered only inside the
    crosscheck pair scope ({!with_solver_faults}). *)

exception Injected_fault of string
(** Carries the injection point's name.  Registered with
    {!Symexec.Engine.register_fatal}: never recorded as a crash path. *)

type point =
  | Solver_fault
  | Agent_step
  | Checkpoint_truncate
  | Clock_jump
  | Hang
      (** a solver task stalls until the supervision watchdog cancels it;
          drawn only when a {!Smt.Cancel} token is installed (i.e. under
          supervision), so unsupervised runs can never freeze *)

val point_name : point -> string
val all_points : point list

val point_of_name : string -> point option
(** Inverse of {!point_name} — lets the CLI's [--chaos-points] flag name
    the points of an [?only] mask. *)

type plan

val plan : ?only:point list -> ?record:bool -> seed:int -> rate:float -> unit -> plan
(** A fault plan firing each point's draws independently with probability
    [rate].  [only] restricts the plan to the listed points: a masked
    point never fires and never draws, and since every point has its own
    stream, masking cannot shift another point's schedule
    ([--chaos-points] relies on this to fault one layer without
    perturbing the others).  [record] (default false) traces every draw
    the plan makes — fired or not — so the run converts to an explicit
    {!Schedule.t} afterwards (see {!trace}, {!to_schedule}).
    @raise Invalid_argument if [rate] is outside [[0, 1]]. *)

val scripted : ?only:point list -> ?record:bool -> Schedule.t -> plan
(** A schedule-driven plan: a draw fires iff its (point, key, index) site
    is listed in the schedule; the seeded random streams are never
    consulted.  A draw's index counts within its own (point, key) stream
    — the same per-key discipline that makes keyed Bernoulli draws
    worker-count-invariant — so a schedule recorded from a seeded run
    replays the identical fault pattern at any [-j].  Sites the run never
    reaches simply never fire.
    @raise Invalid_argument if a site names an unknown injection point. *)

val is_scripted : plan -> bool

val install : plan -> unit
(** Make [plan] the process-wide active plan.  Must be called on the main
    domain before any crosscheck worker domains spawn (the CLI installs it
    at startup): workers read the active plan through the happens-before
    edge of their spawn.  Draws from concurrent workers are serialized
    internally.  Unkeyed draws under [-j N > 1] interleave by scheduling,
    so only the degrade-to-undecided invariant is stable for them; keyed
    draws (see {!maybe_raise}) are scheduling-invariant, which is how the
    crosscheck keeps a chaos report byte-identical at every [-j]. *)

val deactivate : unit -> unit
val current : unit -> plan option

val seed : plan -> int
val rate : plan -> float

val fired : plan -> point -> int
(** How often this point's fault has fired so far. *)

val total_fired : plan -> int

val maybe_raise : ?key:int -> point -> unit
(** Draw at [point]; raise {!Injected_fault} if the fault fires.  A no-op
    when no plan is active.  With [~key] the draw comes from a stream
    seeded by [(seed, point, key)] instead of the point's global stream:
    whether it fires depends only on how many draws {e that key} has
    made, not on the interleaving of other keys' draws — which makes a
    keyed fault pattern invariant under worker count and scheduling.
    Keyed streams persist for the plan's lifetime, so retries of the
    same key continue its stream. *)

val maybe_clock_jump : ?key:int -> unit -> unit
(** Draw at [Clock_jump]; on fire, {!Smt.Mono.advance} the clock a day. *)

val maybe_hang : ?key:int -> unit -> unit
(** Draw at [Hang] — but only when the calling domain carries a
    {!Smt.Cancel} token; a no-op otherwise (no draw consumed).  On fire,
    sleep until the watchdog cancels the token (safety-capped), then raise
    the cancellation.  Exercises the preemptive-kill path end to end. *)

val maybe_truncate_file : string -> unit
(** Draw at [Checkpoint_truncate]; on fire, truncate the file to half its
    size — simulating a write cut down mid-file. *)

val fires : ?key:int -> point -> bool
(** Draw at [point] and report whether the fault fires, without raising.
    [false] when no plan is active or the point is masked (no draw
    consumed then).  For callers that must stage a fault themselves. *)

val with_solver_faults : ?key:int -> (unit -> 'a) -> 'a
(** Run a thunk with solver faults, clock jumps and hangs delivered to
    every query reaching the SAT core (via {!Smt.Solver.set_query_hook}); the
    hook is removed on exit.  Crosscheck wraps each pair decision in
    this, keyed by the pair's index ([~key] routes all three draws
    through keyed streams — see {!maybe_raise}) so the chaos fault
    pattern is identical at every [-j]; the engine's exploration phase
    must never be wrapped. *)

(** {2 Record/replay}

    With [~record:true] the plan logs every draw it makes, fired or not.
    The fired subset converts to an explicit {!Schedule.t} that replays
    the run's exact fault pattern under {!scripted}; the full trace is
    the draw-site universe an exploration driver enumerates over
    ({!Explore}). *)

type draw = {
  d_point : point;
  d_key : int option;
  d_index : int;  (** zero-based position within the (point, key) stream *)
  d_fired : bool;
}

val trace : plan -> draw list
(** Every draw the plan has made, in draw order.  Empty unless the plan
    was created with [~record:true]. *)

val sites : plan -> Schedule.site list
(** The distinct draw sites of {!trace} (fired or not), sorted — the
    site universe a systematic exploration enumerates. *)

val to_schedule : ?meta:(string * string) list -> plan -> Schedule.t
(** The fired draws of {!trace} as an explicit schedule: replaying it
    with {!scripted} reproduces this run's fault pattern exactly. *)

val pp : Format.formatter -> plan -> unit
