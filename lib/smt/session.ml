(* Incremental solving session: one persistent bit-blasting context over
   one persistent SAT instance, shared by a run of closely related
   queries that all contain a common [base] conjunction.

   The base is blasted once, as hard clauses.  Each query's remaining
   conjuncts are blasted (memoized by hash-consed expr id, so shared
   sub-structure across the run costs nothing) and guarded by a fresh
   activation literal [g]: the clause set is [¬g ∨ lit(extra)], and the
   query is decided by [Sat.solve ~assumptions:[|g|]].  Before the next
   query the guard is retired with a unit [¬g], permanently satisfying
   the previous query's guarded clauses while keeping every learnt
   clause, variable activity and saved phase for the rest of the run —
   the amortization the crosscheck's row-major loop exploits.  A session
   lives and dies inside one row task, so its state — and therefore any
   budgeted Unknown — is a function of that row's queries alone, at any
   worker count.

   Queries go through {!Solver.check_with}, so a session query sees the
   exact frontend pipeline a scratch {!Solver.check} sees: constant
   folding, memo cache, interval filter, query hook, model sanity check.
   Two things keep session answers byte-identical to scratch answers:

   - Sat answers are re-derived by a hook-suppressed scratch solve on a
     fresh instance ({!Solver.solve_scratch} with [fire_hook:false]).
     The session's own model is correct but not canonical — its variable
     numbering and saved phases depend on everything solved before it in
     the row — whereas the confirm solve reproduces the witness scratch
     mode would publish.  Suppressing the hook keeps the fault-injection
     stream aligned: one draw per query in both modes.  A confirm that
     answers Unsat contradicts the session and raises {!Solver.Solver_error}.
   - Unsat answers are published directly: both modes are sound and
     complete when budgets do not bite, and Unsat carries no witness to
     normalize.

   Certify mode is the documented exception: an assumption-failure Unsat
   derives no empty clause, so the session's DRUP log cannot certify it.
   {!check} therefore auto-falls back to a plain scratch {!Solver.check}
   whenever certification is enabled; sessions never publish an
   uncertified Unsat. *)

type t = {
  bctx : Bitblast.ctx;
  base_ids : (int, unit) Hashtbl.t; (* bids of the hard-asserted base *)
  mutable active : int option; (* previous query's guard, to retire *)
}

let create base =
  let st = Solver.stats () in
  st.Solver.sessions_opened <- st.Solver.sessions_opened + 1;
  let bctx = Bitblast.create () in
  let base_ids = Hashtbl.create 16 in
  List.iter
    (fun (b : Expr.boolean) ->
      Bitblast.assert_bool bctx b;
      Hashtbl.replace base_ids b.Expr.bid ())
    base;
  { bctx; base_ids; active = None }

(* The incremental back end handed to [Solver.check_with]: decides the
   query's conjunction on the session instance under a fresh activation
   literal.  Mirrors [Solver.run_sat] step for step — deadline anchored
   before blasting, hook fired between anchoring and search — so budget
   accounting and fault delivery match scratch mode. *)
let core t budget conds =
  Cancel.poll ();
  let st = Solver.stats () in
  let sat = t.bctx.Bitblast.sat in
  let t0 = Mono.now () in
  (match t.active with
  | Some g ->
    Sat.add_clause sat [ Sat.lit_neg g ];
    t.active <- None
  | None -> ());
  let retained = Sat.learnt_count sat in
  let g = Bitblast.fresh t.bctx in
  List.iter
    (fun (b : Expr.boolean) ->
      if not (Hashtbl.mem t.base_ids b.Expr.bid) then
        Sat.add_clause2 sat (Sat.lit_neg g) (Bitblast.blast_bool t.bctx b))
    conds;
  t.active <- Some g;
  let deadline =
    Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) budget.Solver.b_timeout_ms
  in
  Solver.run_query_hook ();
  st.Solver.sat_calls <- st.Solver.sat_calls + 1;
  st.Solver.assumption_solves <- st.Solver.assumption_solves + 1;
  st.Solver.learnt_retained <- st.Solver.learnt_retained + retained;
  let r =
    Sat.solve ~assumptions:[| g |] ?max_conflicts:budget.Solver.b_max_conflicts
      ?max_decisions:budget.Solver.b_max_decisions ?deadline sat
  in
  st.Solver.solver_time <- st.Solver.solver_time +. Mono.elapsed t0;
  match r with
  | Sat.Unsat -> Solver.Unsat
  | Sat.Unknown Sat.Conflicts -> Solver.Unknown Solver.Out_of_conflicts
  | Sat.Unknown Sat.Decisions -> Solver.Unknown Solver.Out_of_decisions
  | Sat.Unknown Sat.Time -> Solver.Unknown Solver.Out_of_time
  | Sat.Sat -> (
    (* canonical witness: re-derive the model on a fresh instance so the
       published assignment is the one scratch mode would publish *)
    match Solver.solve_scratch ~fire_hook:false budget conds with
    | Solver.Sat _ as s -> s
    | Solver.Unsat ->
      raise
        (Solver.Solver_error
           ("incremental session answered Sat but the scratch confirmation is Unsat", conds))
    | Solver.Unknown _ as u -> u)

let check ?use_interval ?use_cache ?budget t conds =
  if Solver.certify_enabled () then
    (* assumption-failure Unsats carry no replayable DRUP derivation:
       under certification every query goes through the proof-checked
       scratch path instead (see header) *)
    Solver.check ?use_interval ?use_cache ?budget conds
  else Solver.check_with ?use_interval ?use_cache ?budget ~core:(core t) conds
