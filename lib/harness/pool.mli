(** A work-stealing domain pool for embarrassingly-parallel task arrays.

    Built on stdlib [Domain]/[Mutex]/[Condition] only.  The task array is
    split into contiguous per-worker blocks; idle workers steal from the
    back of a victim's block, so execution stays close to submission
    order without any worker going idle while work remains.

    The caller's domain never runs tasks — it drains a completion queue
    and runs [on_result] there, serialized.  Parallel crosscheck leans on
    this: its checkpoint writer is the [on_result] callback, so snapshot
    writes never race even at [-j N].

    A task that raises yields a per-task [Error] outcome; the rest of the
    run proceeds.  This is what makes one poisonous solver query cost one
    pair, not the whole batch.  [~fail_fast:true] restores the old
    all-or-nothing contract for callers that prefer a loud crash. *)

type 'b outcome = ('b, exn * Printexc.raw_backtrace) result
(** What became of one task: its value, or the exception (with backtrace)
    that killed it. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1. *)

val run :
  ?worker_init:(unit -> unit) ->
  ?worker_exit:(unit -> unit) ->
  ?on_result:(int -> 'b outcome -> unit) ->
  ?fail_fast:bool ->
  ?force_pool:bool ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
(** [run ~jobs f tasks] maps [f] over [tasks] on up to [jobs] domains and
    returns the per-task outcomes in task order.

    [worker_init]/[worker_exit] run on each spawned worker domain at its
    start/end — e.g. to seed the worker's solver context from the
    caller's config and to merge its stats back.  [worker_exit] runs even
    when a task raised ([Fun.protect]).

    [on_result i o] runs on the {e caller's} domain, serialized, in
    completion order (not task order) — [i] is the task index.

    [jobs = 1] is a guaranteed sequential fast path: no domain is
    spawned, [worker_init]/[worker_exit] do not run, tasks execute on the
    caller's domain in submission order with [on_result] inline after
    each — exactly the pre-pool sequential behaviour.  [~force_pool:true]
    disables that fast path: even at [jobs = 1] one worker domain is
    spawned and the full coordinator/completion-queue machinery runs —
    the benchmark uses it to measure pure pool scheduling overhead on
    machines without enough cores for a real speedup comparison.

    By default ([fail_fast = false]) a task exception is captured as that
    task's [Error] outcome and every other task still runs.  With
    [~fail_fast:true] the first task exception instead cancels the
    remaining unstarted tasks, every domain is joined, and the exception
    is re-raised with its original backtrace.  An exception from [on_result] always cancels outstanding
    work, joins all domains, then propagates.

    @raise Invalid_argument if [jobs < 1]. *)

val run_exn :
  ?worker_init:(unit -> unit) ->
  ?worker_exit:(unit -> unit) ->
  ?on_result:(int -> 'b -> unit) ->
  ?force_pool:bool ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [run ~fail_fast:true] with unwrapped results: returns plain values in
    task order, re-raising the first task exception.  Convenience for
    callers whose tasks cannot fail (or should crash the run if they do). *)
