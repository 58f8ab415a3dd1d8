(** Path exploration by re-execution (generational search).

    A program under test is an OCaml function over an ['ev env]; it reads
    symbolic inputs (bitvector expressions from {!Smt.Expr}), branches with
    {!branch}, and records observable events with {!emit}.  When a branch
    condition is symbolic and both arms are feasible under the current path
    condition, the engine pushes a replay script for the unexplored arm
    onto the frontier and continues down the chosen arm.  Frontier items
    re-execute the program from the start; scripted decisions replay
    without solver calls, so the solver runs only at genuinely new forks.

    A cached satisfying model of the current path condition decides one
    arm of most branches without a solver query.  A frontier item starts
    from the model its fork solved for the deferred arm, which satisfies
    the whole replayed prefix, so the path's first new branch solves one
    arm, not two.

    An arm query carries only the slice of the path condition that shares
    a variable with the arm, directly or through other constraints
    (constraint independence, as in KLEE and Cloud9).  The rest shares
    nothing with it and the cached model already satisfies it, so the
    answer is that of the whole query; the arm's model is the cached one
    with the slice's variables taken from the slice's model, and it is
    checked against the whole query.  Models only choose which arm gets
    solved, so slicing changes no path, condition or event.

    This engine plays the role Cloud9 plays for SOFT: it produces, per
    explored path, the path condition, the emitted events, and the covered
    program points. *)

open Smt

type decision = Dir of bool | Val of int64

type 'ev env
(** Per-path execution context, parameterized by the event type. *)

exception Path_crash of string
(** The program under test crashed; the path is recorded with the crash. *)

exception Path_abort
(** Internal: the path became infeasible; no result is recorded. *)

exception Path_stop
(** Internal: the path stopped early (see {!stop}); events so far are
    recorded as a normal result. *)

type 'ev path_result = {
  pc : Expr.boolean list;  (** path condition conjuncts, in execution order *)
  path_cond : Expr.boolean;  (** balanced conjunction of [pc] *)
  events : 'ev list;
  crashed : string option;
  covered : Coverage.snapshot;
  decisions : int;  (** symbolic decisions taken along the path *)
}

type run_stats = {
  path_count : int;
  aborted : int;  (** paths killed as infeasible *)
  truncated : int;  (** paths exceeding the decision bound *)
  forks : int;
  exceptions : int;  (** paths ended by an uncaught agent exception *)
  solver_unknowns : int;  (** arm queries lost to the solver budget *)
  deadline_hit : bool;  (** exploration stopped by the wall-clock budget *)
  cpu_time : float;
  wall_time : float;
  avg_constraint_size : float;  (** Table-2 metric, averaged over paths *)
  max_constraint_size : int;
  solver_sat_calls : int;
  solver_cache_hits : int;
  solver_interval_hits : int;
}

type 'ev run_result = {
  results : 'ev path_result list;
  stats : run_stats;
  coverage : Coverage.set;  (** union over all explored paths *)
}

(** {1 Primitives for programs under test} *)

val emit : 'ev env -> 'ev -> unit
(** Record an observable event on the current path. *)

val events_so_far : 'ev env -> 'ev list
val event_count : 'ev env -> int

val crash : 'ev env -> string -> 'a
(** Terminate the path as a crash (recorded as part of the result). *)

val stop : 'ev env -> 'a
(** End the path normally, keeping the events emitted so far (e.g. the
    program blocks waiting for input that will never come). *)

val branch : ?loc:Coverage.branch_point -> 'ev env -> Expr.boolean -> bool
(** Branch on a condition.  Concrete conditions do not fork; symbolic ones
    fork when both arms are feasible.  [loc] marks branch coverage. *)

val branch_eq : ?loc:Coverage.branch_point -> 'ev env -> Expr.bv -> int64 -> bool
(** [branch_eq env e v] is [branch env (e = v)]. *)

val assume : 'ev env -> Expr.boolean -> unit
(** Add a constraint without forking; kills the path if infeasible. *)

val concretize : 'ev env -> Expr.bv -> int64
(** Pin an expression to one representative concrete value under the
    current path condition, committing the equality.  Replays
    deterministically. *)

val cover : 'ev env -> Coverage.point -> unit
(** Mark an instrumentation point as covered on this path. *)

val path_condition : 'ev env -> Expr.boolean list

(** {1 Exploration driver} *)

val run :
  ?strategy:Strategy.t ->
  ?max_paths:int ->
  ?max_decisions:int ->
  ?max_attempts:int ->
  ?use_interval:bool ->
  ?deadline_ms:int ->
  ?solver_budget:Solver.budget ->
  ?concrete:Model.t ->
  ('ev env -> unit) ->
  'ev run_result
(** [run program] explores [program] until the frontier empties or a budget
    is hit.  [max_paths] bounds completed paths (default unlimited);
    [max_decisions] bounds symbolic decisions per path (default 4096, a
    loop safeguard); [max_attempts] bounds re-executions including aborted
    and truncated ones (default [2*max_paths + 1024]); [use_interval]
    enables the interval feasibility pre-filter (default true);
    [deadline_ms] bounds the whole exploration's wall-clock time (paths in
    flight finish, no new frontier items start — [deadline_hit] records the
    cut); [solver_budget] bounds each feasibility query, with exhausted
    arms degrading to "not taken" and counted in [solver_unknowns].

    [concrete] selects witness mode: one run, no solver, interval filter
    or fork; {!branch} takes the arm the model evaluates [cond] to,
    {!assume} kills the path iff the model falsifies [cond], {!concretize}
    reads the model (unbound variables read as zero).  At most one path
    results: none when an assume fails or [max_decisions] is exceeded.

    A path that raises an exception other than {!Path_crash}/{!Path_abort}
    is recorded as a crashed path (counted in [exceptions]) instead of
    aborting the run; [Out_of_memory], {!Smt.Solver.Solver_error} and any
    exception accepted by a {!register_fatal} predicate still propagate. *)

val register_fatal : (exn -> bool) -> unit
(** Register a predicate for exceptions the per-path crash isolation must
    re-raise rather than record as a crash path.  Fault injection uses
    this for its marker exception: an injected fault recorded as agent
    behaviour could alter a verdict, so it must abort the run loudly.
    Registration is global and permanent. *)

val pp_stats : Format.formatter -> run_stats -> unit
