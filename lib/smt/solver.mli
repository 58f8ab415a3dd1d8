(** Solver frontend: the STP-shaped interface the rest of SOFT uses.

    A query is a conjunction of boolean expressions.  The pipeline is
    constant short-circuiting, then the exact-key memo (an LRU over the
    set of constraint ids), then the sound UNSAT-only interval filter,
    then bit-blasting to the CDCL SAT core with model extraction.

    Every query may carry a resource {!budget}; exhausting it yields the
    third outcome [Unknown], which is never cached (a later identical
    query may carry a larger budget).

    All mutable frontend state (memo cache, stats, certify flag, query
    hook, default budget) is {e per-domain}: each domain owns an
    independent solver context, created on first use from the built-in
    defaults.  [check] is therefore safe to call concurrently from
    several domains.  Parallel drivers hand the parent's configuration
    to workers via {!snapshot_config}/{!apply_config} and fold worker
    counters back with {!merge_stats}. *)

type unknown_reason =
  | Out_of_conflicts  (** the conflict budget was exhausted *)
  | Out_of_decisions  (** the decision budget was exhausted *)
  | Out_of_time  (** the per-query wall-clock budget was exhausted *)
  | Proof_failed of string
      (** certify mode: the SAT core answered Unsat but the independent
          DRUP checker rejected its proof — the answer is not trusted *)

type result =
  | Sat of Model.t  (** satisfiable, with a concrete witness *)
  | Unsat
  | Unknown of unknown_reason  (** gave up within the budget *)

exception Solver_error of string * Expr.boolean list
(** Internal soundness violation (e.g. a SAT answer whose model does not
    satisfy the query), carrying the offending query.  A real exception
    rather than an [assert]: asserts vanish under [--release]. *)

val unknown_reason_to_string : unknown_reason -> string

(** {1 Budgets} *)

type budget = {
  b_max_conflicts : int option;  (** CDCL conflicts per query *)
  b_max_decisions : int option;  (** CDCL decisions per query *)
  b_timeout_ms : int option;  (** wall-clock per query, monotonic *)
}

val no_budget : budget
(** No limits; [solve] runs to completion (the pre-budget behaviour). *)

val budget :
  ?max_conflicts:int -> ?max_decisions:int -> ?timeout_ms:int -> unit -> budget

val is_unlimited : budget -> bool

val set_default_budget : budget -> unit
(** Budget applied to queries that pass no explicit [?budget] {e in the
    calling domain}.  The CLI sets this from
    [--budget-ms]/[--max-conflicts] so limits reach every solver call in
    the process; worker domains inherit it via {!apply_config}. *)

val get_default_budget : unit -> budget

(** {1 Certification} *)

val set_certify : bool -> unit
(** When enabled, every query reaching the SAT core logs a DRUP proof;
    an [Unsat] answer is published only if {!Proof.check_derivation}
    accepts the proof, and is downgraded to [Unknown (Proof_failed _)]
    otherwise.  The interval pre-filter is bypassed (its Unsat answers
    carry no proof); constant folding of a literal [false] conjunct is the
    one remaining uncertified Unsat path.  Toggling flushes the memo
    cache: entries from the other regime are not comparable. *)

val certify_enabled : unit -> bool

val set_query_hook : (unit -> unit) -> unit
(** Install a closure run on every query that reaches the SAT core
    (between deadline anchoring and the search).  Fault injection uses
    this to deliver solver faults and clock jumps; install
    [(fun () -> ())] to remove.  An exception it raises propagates to the
    {!check} caller.  The hook is per-domain: a crosscheck worker
    installing it for a pair's scope never perturbs other domains.  It
    must not issue a solver query itself: it runs while the domain's
    scratch solver holds the current query. *)

(** {1 Cross-domain configuration hand-off} *)

type config = {
  cfg_budget : budget;
  cfg_certify : bool;
  cfg_cache_capacity : int;
}
(** The configurable part of a domain's solver context — what a freshly
    spawned worker domain must inherit to behave like its parent. *)

val snapshot_config : unit -> config
(** The calling domain's current configuration. *)

val apply_config : config -> unit
(** Install [config] into the calling domain's context.  Flushes the
    memo cache iff the certify regime changes (entries from the other
    regime are not comparable), exactly as {!set_certify} does. *)

(** {1 Statistics} *)

type stats = {
  mutable queries : int;
  mutable const_hits : int;  (** answered by constant folding *)
  mutable interval_hits : int;  (** answered by the interval filter *)
  mutable cache_hits : int;
  mutable sat_calls : int;
      (** CDCL solves: one per scratch core solve (a row's witness
          confirm included) and one per solve on a template row.  An
          all-SAT row query decides many queries per solve, so this is
          not a per-query count *)
  mutable sat_results : int;
  mutable unsat_results : int;
  mutable unknown_results : int;  (** queries that exhausted their budget *)
  mutable cache_evictions : int;
      (** bounded (evict-LRU-half) eviction events at capacity *)
  mutable solver_time : float;  (** monotonic seconds inside the SAT core *)
  mutable proofs_checked : int;  (** certify mode: Unsat proofs validated *)
  mutable proofs_failed : int;  (** certify mode: proofs the checker rejected *)
  mutable sessions_opened : int;
      (** {!Session.template}s built: one per crosscheck that solves on
          template rows, whatever its rows and [-j] *)
  mutable assumption_solves : int;
      (** solves on a template row: one per {!Session.pair} query that
          reaches the core, and one per solve of an all-SAT row query (a
          row costs the models it finds plus a final Unsat) *)
  mutable scratch_fallbacks : int;
      (** crosscheck pairs re-run down the scratch ladder after a row
          Unknown *)
  mutable tiny_session_fallbacks : int;  (** always 0; kept because softbench reads it *)
  mutable learnt_retained : int;
      (** learnt clauses already in a row's database when one of its
          solves started, summed over solves: what the solves of one row
          hand on, since every row starts from the template with none *)
  mutable canonical_hits : int;  (** always 0; kept because softbench reads it *)
  mutable canon_small_skips : int;  (** always 0; kept because softbench reads it *)
  mutable rows_pruned : int;  (** always 0; kept because softbench reads it *)
  mutable pairs_skipped_by_pruning : int;  (** always 0; kept because softbench reads it *)
  mutable shared_solves : int;  (** always 0; kept because softbench reads it *)
  mutable bases_adopted : int;  (** always 0; kept because softbench reads it *)
  mutable clauses_exported : int;  (** always 0; kept because softbench reads it *)
  mutable clauses_imported : int;  (** always 0; kept because softbench reads it *)
  mutable expr_nodes : int;
      (** gauge: total nodes in the global {!Expr} hash-cons tables at the
          last {!capture_expr_stats}; merged with [max], not [+] *)
}

val stats : unit -> stats
(** The calling domain's counters, cumulative since the domain's first
    solver use or the last {!reset_stats}.  The returned record is live:
    later queries in this domain keep mutating it. *)

val reset_stats : unit -> unit

val merge_stats : into:stats -> stats -> unit
(** [merge_stats ~into src] adds every counter of [src] into [into],
    skipping the always-0 fields.  [expr_nodes], a gauge over one global
    table, merges with [max] instead, so folding several workers never
    double-counts shared nodes.
    Parallel drivers use it to fold worker-domain counters into the
    parent's record after the workers have quiesced; it performs no
    synchronization of its own. *)

val capture_expr_stats : unit -> unit
(** Record the current global {!Expr} hash-cons table size into the
    calling domain's [expr_nodes] gauge.  Called automatically by
    {!pp_stats} and by the crosscheck pool's worker-exit hook. *)

(** {1 Memo cache} *)

val clear_cache : unit -> unit
(** Drop every memo entry.  Benchmarks use this to measure cold costs;
    reproducibility harnesses use it to realign two runs' query streams. *)

val set_cache_capacity : int -> unit
(** Entry count at which bounded eviction triggers (default 65536); on
    reaching it the *colder half* of the entries (least-recently-used
    first — a hit moves an entry to the back) is discarded, keeping the
    hot half warm while bounding memory for week-long suite runs.
    @raise Invalid_argument on a non-positive capacity. *)

(** {1 Queries} *)

val check :
  ?use_interval:bool -> ?use_cache:bool -> ?budget:budget -> Expr.boolean list -> result
(** [check conds] decides the conjunction of [conds].  [use_interval]
    (default true) enables the interval pre-filter; [use_cache] (default
    true) the memo table; [budget] defaults to {!set_default_budget}'s
    value (initially unlimited).  [Unknown] results are never cached. *)

val check_with :
  ?use_interval:bool ->
  ?use_cache:bool ->
  ?budget:budget ->
  core:(budget -> Expr.boolean list -> result) ->
  Expr.boolean list ->
  result
(** {!check} with a pluggable back end: the full frontend pipeline
    (constant folding, memo cache, interval filter, result sanity check
    and caching) runs as usual, and [core budget conds] decides the
    queries that survive it.  [check] is [check_with] over the scratch
    SAT core; {!Session.pair} supplies an assumption solve on a template
    row.
    Sharing the front half is what keeps the two modes' query streams —
    and hence their fault-injection draws and memo behaviour —
    identical. *)

(** {2 The two halves of the pipeline}

    {!check_with} is [front], then a core on the survivors, then
    [settle].  The crosscheck's all-SAT row query ({!Session.all_sat})
    runs [front] per pair and decides a whole row's survivors at once,
    then [settle]s each pair, so it keeps the per-query stats and memo
    rules of {!check}. *)

type pending
(** A query that survived the front half, waiting for a core answer. *)

type front = Decided of result | Pending of pending

val front : ?use_interval:bool -> ?use_cache:bool -> Expr.boolean list -> front
(** Count the query, then try constant folding, the memo cache (a hit
    fires the query hook, standing in for the solve it replaces) and the
    interval filter (never cached, no hook).  [Pending] carries the
    conjunction with trivially-true conjuncts dropped. *)

val pending_conds : pending -> Expr.boolean list
(** The conjunction a core must decide for this query. *)

val settle : pending -> result -> result
(** Publish a core answer for a pending query: bump the result counters,
    check that a Sat model satisfies the query (raising
    {!Solver_error} otherwise) and memoize Sat/Unsat.  Returns the
    answer. *)

val resolve_budget : budget option -> budget
(** An explicit budget, or the calling domain's {!set_default_budget}. *)

val solve_scratch : ?fire_hook:bool -> budget -> Expr.boolean list -> result
(** A raw scratch SAT solve (blast + CDCL + certify-mode proof check) on
    the calling domain's context, bypassing constant folding, the cache
    and the interval filter.  [fire_hook] (default true) controls whether
    the {!set_query_hook} closure runs; a template row passes [false]
    when re-deriving the witness scratch mode would publish, so it does
    not consume a fault-injection draw scratch mode would not consume. *)

val run_query_hook : unit -> unit
(** Fire the calling domain's query hook, exactly as a query reaching the
    SAT core would.  A template row calls this once per solve to keep
    the fault-injection stream aligned with scratch mode. *)

val is_sat :
  ?use_interval:bool -> ?use_cache:bool -> ?budget:budget -> Expr.boolean list -> bool
(** [Unknown] maps to [false]; callers that must distinguish "unsat" from
    "gave up" use {!check}. *)

val get_model :
  ?use_interval:bool ->
  ?use_cache:bool ->
  ?budget:budget ->
  Expr.boolean list ->
  Model.t option

val entails : ?budget:budget -> Expr.boolean list -> Expr.boolean -> bool
(** [entails pc c] iff [pc ∧ ¬c] is unsatisfiable.  [Unknown] answers
    [false]: we refuse to certify an entailment we could not prove. *)

val pp_stats : Format.formatter -> unit -> unit
