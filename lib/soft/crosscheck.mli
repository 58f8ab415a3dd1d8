(** SOFT's inconsistency finder (paper §3.4, §4.2): for every pair of
    *different* grouped results across two agents, ask the solver whether
    [C_A(i) ∧ C_B(j)] is satisfiable.  Each satisfiable pair is an
    inconsistency and its model a concrete witness input.

    This stage is where the paper's own tooling blew up (STP on the Open
    vSwitch FlowMod disjunctions, §5.2).  The defences here: per-query
    solver budgets, a chunk-split retry ladder on [Unknown] (the paper's
    proposed remedy), pairs recorded as *undecided* instead of silently
    dropped, and periodic checkpoints so a killed run resumes.

    Every differing pair is one frontend query, but the default back end
    decides a whole row's surviving pairs with one all-SAT query on a row
    restored from a template holding B's conditions, blasted once per
    check ({!Smt.Session}), so SAT calls scale with rows plus
    inconsistencies, not with pairs.  Per-pair
    scratch instances are the reference path (see [incremental] below). *)

type inconsistency = {
  i_result_a : Openflow.Trace.result;
  i_result_b : Openflow.Trace.result;
  i_witness : Smt.Model.t;  (** concrete inputs exhibiting the divergence *)
  i_cond : Smt.Expr.boolean;  (** the satisfiable conjunction *)
  i_paths_a : int;
  i_paths_b : int;
}

type outcome = {
  o_agent_a : string;
  o_agent_b : string;
  o_test : string;
  o_inconsistencies : inconsistency list;
  o_pairs_checked : int;
  o_pairs_equal : int;  (** pairs skipped: identical results *)
  o_pairs_undecided : (string * string) list;
      (** result-key pairs the solver gave up on within its budget, after
          the full retry ladder — "gave up", not "no inconsistency" *)
  o_pair_faults : int;
      (** pairs lost to a fault (a {!Smt.Solver.Solver_error} or an
          injected {!Harness.Chaos.Injected_fault}) rather than an honest
          [Unknown]; counted in [o_pairs_undecided] too, and left out of
          checkpoints so a resumed run retries them *)
  o_pairs_quarantined : (string * string * Harness.Supervise.taxonomy) list;
      (** pairs supervision struck out after the full retry ladder, tagged
          with the last failure's taxonomy; counted in [o_pairs_undecided]
          too, and — unlike transient faults — persisted in the checkpoint
          so a resume skips known-poison pairs *)
  o_retries : int;
      (** supervised attempts beyond each pair's first, summed *)
  o_check_time : float;  (** seconds in the intersection stage (Table 3) *)
}

val chunk_conds : int -> Smt.Expr.boolean list -> Smt.Expr.boolean list
(** [chunk_conds n conds] groups [conds] into balanced disjunctions of at
    most [n] members each, preserving order.
    @raise Invalid_argument if [n <= 0]. *)

type pair_verdict =
  | Pair_sat of Smt.Model.t  (** inconsistent, with a witness *)
  | Pair_unsat  (** proven disjoint *)
  | Pair_undecided  (** every budgeted attempt returned Unknown *)

val default_retry_ladder : int list
(** Chunk sizes tried, finest last, after an [Unknown]: [[16; 4; 1]]. *)

val sat_pair :
  ?split:int ->
  ?budget:Smt.Solver.budget ->
  ?retry:int list ->
  Grouping.group ->
  Grouping.group ->
  pair_verdict
(** Decide one group pair.  [split] checks chunk pairs of at most [n]
    member conditions from the start; on an [Unknown] the disjunctions are
    re-checked at each strictly finer rung of [retry] (default
    {!default_retry_ladder}) before the verdict degrades to
    [Pair_undecided].  [budget] bounds each individual solver query and
    defaults to the solver's process-wide default budget. *)

exception Checkpoint_error of string
(** Raised when an *intact* resume file (its whole-file checksum holds)
    belongs to different runs — the checkpoint carries the test, agent
    names, and a fingerprint of every group's result key, path count and
    condition, so runs with the same result groups but other conditions
    are refused too.  A file that
    fails its checksum (truncated, bit-flipped, or pre-checksum format) is
    never an error: it degrades to a cold start with an [on_warning]
    message. *)

val solver_pool_hooks : unit -> (unit -> unit) * (unit -> unit)
(** [(worker_init, worker_exit)] closures for a {!Harness.Pool.run} whose
    tasks issue solver queries: [worker_init] replays the calling
    domain's solver config (budget, certify regime, cache capacity) into
    the fresh worker's context, and [worker_exit] merges the worker's
    query/cache counters back into the caller's
    {!Smt.Solver.stats} record (safely, even when workers exit
    concurrently).  Capture the pair on the domain whose config should
    propagate. *)

val check :
  ?split:int ->
  ?budget:Smt.Solver.budget ->
  ?retry:int list ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:string ->
  ?jobs:int ->
  ?incremental:bool ->
  ?force_pool:bool ->
  ?supervise:Harness.Supervise.policy ->
  ?on_found:(inconsistency -> unit) ->
  ?on_warning:(string -> unit) ->
  Grouping.grouped ->
  Grouping.grouped ->
  outcome
(** Crosscheck two agents' grouped phase-1 results for the same test.

    [split]: check chunk pairs of at most [n] member conditions instead of
    one monolithic disjunction pair — same answers, more but smaller
    queries with an early exit.

    [budget]/[retry]: see {!sat_pair}.  Pairs that stay [Unknown] end up in
    [o_pairs_undecided] instead of aborting or silently vanishing.

    [checkpoint]: snapshot progress (pairs decided, witnesses found) to
    this file every [checkpoint_every] (default 64) newly decided pairs,
    via an atomic rename; a final snapshot is written on completion.
    [resume]: load a previous snapshot and skip the pairs it already
    decided — a missing file is a fresh start, a corrupt one a warned cold
    start, and an intact-but-mismatched one raises {!Checkpoint_error}.  A
    killed-then-resumed run yields the same outcome as an uninterrupted
    one ([on_found] fires only for newly discovered inconsistencies).

    [jobs] (default 1): solve pairs on up to [jobs] domains via
    {!Harness.Pool}.  Each worker gets its own solver context seeded from
    the caller's config; all shared mutation — the decided table,
    checkpoint writes, counters, [on_found] — stays serialized on the
    calling domain, so checkpoint/resume semantics are unchanged.  The
    returned outcome's lists are ordered row-major over the group
    matrices regardless of [jobs]; with deterministic (query-count)
    budgets the report is identical at any [jobs].  [on_found] fires in
    completion order when [jobs > 1].  [jobs = 1] runs everything on the
    calling domain, exactly as before.

    [incremental] (default true): blast every [C_B(j)] once, on the
    calling domain, into a frozen {!Smt.Session.template}, and cut the
    rows into at most 16 contiguous blocks of [⌈rows/16⌉] rows (a
    constant, never derived from [jobs]), each one pool task.  Each pair
    still runs the solver's front half (constant folding, exact memo,
    interval filter); a row's survivors are then decided on a row
    restored from the template by one {!Smt.Session.all_sat} query, which
    costs one solve per model found plus a final Unsat.  Every pair it
    decides is memoized, so a warm re-run makes no SAT call.  A budget
    [Unknown] decides the rest of the row pair by pair on the same row,
    and a pair still [Unknown] falls back to the scratch retry ladder
    (counted in [scratch_fallbacks]).  Every row starts from a clean copy
    of the template, so even budgeted verdicts do not depend on
    scheduling.  Under a chaos plan or [supervise], whose fault streams
    are defined per pair, each pair of a restored row is decided on its
    own ({!Smt.Session.pair}).  Reports are byte-identical to
    [~incremental:false], the per-pair scratch reference path: Sat
    witnesses are re-derived canonically from scratch (see
    {!Smt.Session}).  An explicit [split] or an enabled certify regime
    forces the scratch path (chunked queries share no row conjunct; an
    assumption-failure Unsat has no replayable DRUP proof).

    [force_pool] (default false): run the solve stage through the full
    pool machinery even at [jobs = 1] (one worker domain, coordinator,
    completion queue) instead of the guaranteed sequential fast path —
    for measuring pool scheduling overhead on single-core machines.

    [supervise]: run every pair solve under a {!Harness.Supervise} watchdog
    — per-attempt wall-clock deadlines enforced preemptively by a monitor
    domain, a memory-pressure guard, and the retry/backoff ladder.  A pair
    that strikes out is {e quarantined}: recorded undecided with a failure
    taxonomy, checkpointed (format v3) so a resume skips it, and reported
    in [o_pairs_quarantined].  Without supervision (the default) behaviour
    is exactly the pre-supervision code path.  With supervision enabled
    but no deadline tripping, reports remain byte-identical to
    unsupervised runs at any [jobs].

    [on_warning] (default: print to stderr) receives degradation notices
    such as a corrupt resume file or a quarantined pair.

    @raise Invalid_argument if the two runs are of different tests, if
    [jobs < 1], or if [split <= 0]. *)

val count : outcome -> int

val undecided_count : outcome -> int
(** Number of pairs the run gave up on; nonzero means the inconsistency
    list is a lower bound, not a verdict. *)

val quarantined_count : outcome -> int
(** Number of pairs the supervision layer quarantined (a subset of
    {!undecided_count}). *)

val pp : Format.formatter -> outcome -> unit

val pp_stable : Format.formatter -> outcome -> unit
(** {!pp} minus the check-time field — every byte a pure function of the
    verdicts.  The exploration oracle and the benchmark digests compare
    this rendering byte for byte, e.g. a checkpoint-resumed run against
    the uninterrupted one. *)

val render_stable : outcome -> string
(** [Format.asprintf "%a" pp_stable]. *)
