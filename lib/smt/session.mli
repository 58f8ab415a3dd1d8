(** Incremental solving session over one persistent SAT instance.

    A session amortizes a run of related queries over one instance.  It
    serves two shapes of crosscheck work:

    - {!check}: queries that share a common [base] conjunction (a
      crosscheck row: every [C_A(i) ∧ C_B(j)] of row [i] shares
      [C_A(i)]).  The base is bit-blasted once as hard clauses; each
      query's remaining conjuncts are guarded by a fresh activation
      literal and decided with a MiniSat-style assumption solve.
    - {!all_sat}: a whole row per query, on a session with an empty base
      shared by a block of rows.  Each B condition is blasted once per
      session, and a row costs one solve per model found plus a final
      Unsat.

    Either way learnt clauses, variable activities, saved phases and the
    CNF memo (keyed by hash-consed expr ids) survive the run.

    Answers are byte-for-byte the answers {!Solver.check} gives: the
    frontend halves are shared ({!Solver.check_with}, {!Solver.front},
    {!Solver.settle}), Sat witnesses are re-derived canonically from
    scratch (hook-suppressed), and under certify mode every query falls
    back to the proof-checked scratch path — a session never publishes an
    uncertified Unsat.  See [session.ml]'s header for the full argument.

    Sessions are single-domain values: create and use a session on the
    same domain (its counters and query hook are that domain's).  The
    crosscheck opens one per pool task, so a budgeted [Unknown] depends
    only on that task's own query sequence, never on how tasks were
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

val all_sat :
  ?budget:Solver.budget ->
  t ->
  Expr.boolean ->
  (Expr.boolean * Solver.pending) list ->
  Solver.result list
(** [all_sat t a cands] decides a whole crosscheck row: each candidate
    is a B condition [b] with its pair's {!Solver.front} survivor (the
    query [a ∧ b]).  Returns one {!Solver.settle}d answer per candidate,
    in order.  [a] goes under a fresh row guard and [b] under a selector
    blasted once per session, and one clause asks for some selector.  A
    Sat model decides every open candidate whose [b] it satisfies, each
    published with the canonical scratch witness ({!check}'s confirm);
    their selectors are then assumed off and the query re-solved.  The
    final Unsat decides every remaining candidate.  An [Unknown] (the
    budget bit) decides the remaining candidates one by one on the same
    instance, each solve under its own budget; a candidate still
    [Unknown] is answered [Unknown], for the caller's scratch ladder.
    Each solve counts one [sat_calls] and one [assumption_solves] and
    fires the query hook once.  Under certify mode every candidate is solved from scratch.
    The row guard is retired afterwards, so later rows of the session
    see only its learnt clauses and the shared B selectors. *)
