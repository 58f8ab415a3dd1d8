(** Incremental solving session over one persistent SAT instance.

    A session amortizes a run of queries that share a common [base]
    conjunction (a crosscheck row: every [C_A(i) ∧ C_B(j)] of row [i]
    shares [C_A(i)]).  The base is bit-blasted once as hard clauses; each
    query's remaining conjuncts are guarded by a fresh activation literal
    and decided with a MiniSat-style assumption solve, retaining learnt
    clauses, variable activities and saved phases across the whole run.
    CNF memoization (keyed by hash-consed expr ids) also survives the run,
    so repeated sub-structure is blasted once.

    {!check} answers are byte-for-byte the answers {!Solver.check} gives:
    the frontend pipeline is shared via {!Solver.check_with}, Sat
    witnesses are re-derived canonically from scratch (hook-suppressed),
    and under certify mode every query auto-falls back to the
    proof-checked scratch path — a session never publishes an uncertified
    Unsat.  See [session.ml]'s header for the full argument.

    Sessions are single-domain values: create and use a session on the
    same domain (its counters and query hook are that domain's).  The
    crosscheck opens one per row task, so a budgeted [Unknown] depends
    only on that row's own query sequence, never on how rows were
    scheduled across domains. *)

type t

val create : Expr.boolean list -> t
(** [create base] opens a session whose every query is assumed to contain
    the conjuncts of [base]; they are asserted as hard clauses once.
    Bumps the calling domain's [sessions_opened] counter. *)

val check :
  ?use_interval:bool ->
  ?use_cache:bool ->
  ?budget:Solver.budget ->
  t ->
  Expr.boolean list ->
  Solver.result
(** [check t conds] decides the conjunction of [conds] — which must
    include the session's base (extra occurrences of base conjuncts are
    recognized by expr id and not re-asserted) — on the session instance.
    Options mean exactly what they mean on {!Solver.check}.  [Unknown]
    means the budget bit; callers retry with {!Solver.check} (scratch)
    and should count the fallback in [scratch_fallbacks]. *)
