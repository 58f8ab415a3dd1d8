(** CDCL SAT solver: two-watched literals, VSIDS decisions, first-UIP
    conflict learning, phase saving and Luby restarts.

    Instances are incremental in the MiniSat style: {!solve} may be called
    repeatedly, {!add_clause}/{!new_var} may be interleaved between calls,
    and each call may carry {e assumption} literals that hold for that
    call only.  Learnt clauses, variable activities and saved phases
    persist across calls — what the solves of one crosscheck row share.

    Literal encoding: variable [v] yields literal [2*v] (positive) and
    [2*v+1] (negated). *)

type stop_reason = Conflicts | Decisions | Time
(** Which budget stopped an inconclusive solve. *)

type result = Sat | Unsat | Unknown of stop_reason

type proof_step =
  | P_add of int array  (** a derived (learnt) clause; [[||]] is the empty clause *)
  | P_delete of int array  (** a clause removed from the database *)
(** One step of a DRUP derivation, in solver literal encoding.  The solver
    currently never deletes clauses, so it emits only [P_add]; {!Proof}
    checks both. *)

type t

val create : unit -> t

val reset : t -> unit
(** Empty the instance: no variables, no clauses, no proof log, every
    counter at 0, as after {!create}, but keeping the capacity of every
    array.  A search on a reset instance is exactly the search on a fresh
    one.  Safe after a {!solve} that raised. *)

val restore : t -> from:t -> unit
(** [restore s ~from:t] makes [s] a copy of [t] (no proof log), whatever
    [s] held, by blits: once [s] has [t]'s capacity it allocates nothing,
    and a search on [s] is the search on [t].  [t] is only read, so
    several domains may restore from one instance nobody writes to. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val add_clause : t -> int list -> unit
(** Add a problem clause, before the first {!solve} or between solves.
    Contract of every [add_clause*]: under proof logging the clause is
    recorded exactly as given ({!original_clauses}); it is then sorted
    ascending and deduplicated, dropped if a tautology or true at level 0,
    and stripped of literals false at level 0.  Two or more literals are
    stored and watched, a unit is enqueued at level 0, and an empty
    clause makes the instance permanently unsatisfiable. *)

val add_clause2 : t -> int -> int -> unit
val add_clause3 : t -> int -> int -> int -> unit
(** [add_clause] of a two- or three-literal clause, with no list and no
    allocation at all (stored clauses go to an arena that grows by
    doubling) — the blaster's path. *)

val solve :
  ?assumptions:int array ->
  ?max_conflicts:int ->
  ?max_decisions:int ->
  ?deadline:float ->
  t ->
  result
(** Decide the instance under the call's [assumptions] (literals decided
    first, one per decision level, holding for this call only — MiniSat
    style).  [Unsat] under non-empty assumptions means unsat {e under
    those assumptions}; the instance stays usable.  No empty
    clause is derived in that case, so the DRUP log of an
    assumption-failure answer does not certify it — certify mode must
    solve from scratch instead.

    [max_conflicts]/[max_decisions] bound the search effort spent in this
    call; [deadline] is an absolute monotonic time in {!Mono.now} seconds.
    With no budgets the search runs to completion.  On budget exhaustion
    the result is [Unknown] and the instance remains usable (the search is
    unwound to decision level 0). *)

val learnt_count : t -> int
(** Learnt clauses currently in the database — what a crosscheck row
    carries from one solve into the next. *)

val model_value : t -> int -> bool
(** After [Sat]: the assignment of a variable (unassigned vars read as
    false). *)

val lit_var : int -> int
val lit_neg : int -> int
val lit_sign : int -> bool

val stats : t -> int * int * int * int
(** [(conflicts, propagations, nvars, nclauses)]. *)

val decisions : t -> int
(** Cumulative decision count (the quantity bounded by [max_decisions]). *)

(** {1 DRUP proof logging}

    Off by default, and off-path free: until {!enable_proof} is called the
    instance carries no proof structure at all (not an empty one), and
    {!add_clause}/{!solve} allocate nothing extra. *)

val enable_proof : t -> unit
(** Start recording original clauses and derivation steps.  Must be called
    before the first {!add_clause} for the original-CNF record to be
    complete.  Idempotent. *)

val proof_enabled : t -> bool
(** Whether a proof log is physically allocated on this instance. *)

val original_clauses : t -> int array list
(** The raw clauses passed to {!add_clause}, in order, before any level-0
    simplification.  Empty if proof logging is disabled. *)

val proof_steps : t -> proof_step list
(** The derivation, in order.  After an [Unsat] answer with proof logging
    enabled, the log contains an empty-clause step; feed it together with
    {!original_clauses} to {!Proof.check_derivation}.  Empty if proof
    logging is disabled. *)
