(** The crosscheck's incremental back end: template rows.

    One side's conditions are blasted once into a frozen {!template},
    each under a selector.  A {!row} restores the calling domain's
    recycled instance from it by array blits and asserts the row's
    condition; the row's candidates are then decided together
    ({!all_sat}) or one assumption solve per pair ({!pair}).  Learnt
    clauses carry from one solve of a row to the next, never across rows,
    so a row's answers, budgeted [Unknown]s included, depend only on the
    template and the row.

    Answers are byte-for-byte {!Solver.check}'s: the frontend halves are
    shared, Sat witnesses are re-derived canonically from scratch
    (hook-suppressed), and under certify mode every query is solved from
    scratch, so no uncertified Unsat is published.  A template is only
    read once built, so any number of domains may open rows on it; a row
    belongs to its domain, and opening another row there ends it. *)

type template

val template : Expr.boolean list -> template
(** [template bs] blasts each condition of [bs] once, under a selector
    [s → lit(b)] (a condition repeated by expr id shares one).  Bumps the
    calling domain's [sessions_opened] counter. *)

type row

val row : template -> Expr.boolean -> row
(** [row t a] restores the calling domain's row instance from [t] (no
    allocation once it has [t]'s size) and asserts [a] on it. *)

val pair : ?budget:Solver.budget -> row -> Expr.boolean -> Solver.result
(** [pair r b] is {!Solver.check} [[a; b]], where [a] is [r]'s row and
    [b] a condition of its template: the frontend runs as usual, and a
    query that survives it is one assumption solve [[s_b]] on the row.
    [Unknown] means the budget bit; callers retry with {!Solver.check}
    (scratch) and should count the fallback in [scratch_fallbacks]. *)

val all_sat :
  ?budget:Solver.budget ->
  template ->
  Expr.boolean ->
  (Expr.boolean * Solver.pending) list ->
  Solver.result list
(** [all_sat t a cands] decides a whole row [a] on a {!row} restored from
    [t] (none if [cands] is empty): each candidate is a condition [b] of
    [t] with its pair's {!Solver.front} survivor (the query [a ∧ b]).
    Returns one {!Solver.settle}d answer per candidate, in order.  One
    hard clause asks for some candidate's selector.  A Sat model decides
    every open candidate whose [b] it satisfies, each published with the
    canonical scratch witness; their selectors are then switched off by
    unit clauses and the row solved again.  The final Unsat decides every
    remaining candidate.  An [Unknown] (the budget bit) decides the
    remaining candidates one by one on the same row, each by its
    assumption solve under its own budget; a candidate still [Unknown]
    is answered [Unknown], for the caller's scratch ladder.  Each solve
    counts one [sat_calls] and one [assumption_solves], adds the learnt
    clauses the row's earlier solves left to [learnt_retained], and
    fires the query hook once.  Under certify mode every candidate is
    solved from scratch. *)
