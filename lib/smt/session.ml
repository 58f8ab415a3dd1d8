(* Incremental solving session: one persistent bit-blasting context over
   one persistent SAT instance, shared by a run of closely related
   queries.

   [check]: queries that all contain a common [base] conjunction.  The
   base is blasted once, as hard clauses.  Each query's remaining
   conjuncts are blasted (memoized by hash-consed expr id, so shared
   sub-structure across the run costs nothing) and guarded by a fresh
   activation literal [g]: the clause set is [¬g ∨ lit(extra)], and the
   query is decided by [Sat.solve ~assumptions:[|g|]].  Before the next
   query the guard is retired with a unit [¬g], permanently satisfying
   the previous query's guarded clauses while keeping every learnt
   clause, variable activity and saved phase for the rest of the run.

   [all_sat]: one crosscheck row [C_A(i)] against its candidates
   [C_B(j)], on a session with an empty base shared by a block of rows.
   Each [C_B(j)] gets a selector [s_j → lit(C_B(j))], created once per
   session and reused by every later row; the row gets a guard
   [a → lit(C_A(i))] and a clause [¬r ∨ ⋁ s_j] over its candidates.  A
   solve under [a; r; ¬s_found…] either finds a model — every open
   candidate whose condition the model satisfies is an inconsistency,
   and its selector goes off for the next solve — or proves that no
   remaining candidate meets the row.  Selectors only imply their
   conditions, so switching one off never constrains the model (an
   overlapping [C_B(j')] stays reachable inside [C_B(j)]'s region).
   After the row, [a] and [r] are retired with units.

   A session lives and dies inside one crosscheck task, so its state —
   and therefore any budgeted Unknown — is a function of that task's
   queries alone, at any worker count.

   [check] goes through {!Solver.check_with} and [all_sat]'s caller runs
   {!Solver.front} per pair, with each answer published through
   {!Solver.settle}: a session answer sees the exact frontend a scratch
   {!Solver.check} sees — constant folding, memo cache, interval filter,
   model sanity check, memoization.  Two things keep session answers
   byte-identical to scratch answers:

   - Sat answers are re-derived by a hook-suppressed scratch solve on a
     fresh instance ({!Solver.solve_scratch} with [fire_hook:false]).
     The session's own model is correct but not canonical — its variable
     numbering and saved phases depend on everything solved before it —
     whereas the confirm solve reproduces the witness scratch mode would
     publish.  A confirm that answers Unsat contradicts the session and
     raises {!Solver.Solver_error}.
   - Unsat answers are published directly: both modes are sound and
     complete when budgets do not bite, and Unsat carries no witness to
     normalize.

   Each session solve fires the query hook once, as a scratch core solve
   does; [check] therefore keeps the per-pair fault-injection stream
   aligned with scratch mode (one draw per query).  [all_sat] does not
   (one draw per row solve), which is why the crosscheck uses it only
   when no chaos plan is installed.

   Certify mode is the documented exception: an assumption-failure Unsat
   derives no empty clause, so the session's DRUP log cannot certify it.
   Both entry points therefore fall back to scratch solving whenever
   certification is enabled; sessions never publish an uncertified
   Unsat. *)

type t = {
  bctx : Bitblast.ctx;
  base_ids : (int, unit) Hashtbl.t; (* bids of the hard-asserted base *)
  mutable active : int option; (* previous query's guard, to retire *)
  selectors : (int, int) Hashtbl.t; (* [all_sat]: bid of a B condition -> its selector *)
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
  { bctx; base_ids; active = None; selectors = Hashtbl.create 64 }

(* Canonical witness for a session Sat: re-derive the model on a fresh
   instance, so the published assignment is the one scratch mode would
   publish. *)
let confirm budget conds =
  match Solver.solve_scratch ~fire_hook:false budget conds with
  | (Solver.Sat _ | Solver.Unknown _) as r -> r
  | Solver.Unsat ->
    raise
      (Solver.Solver_error
         ("incremental session answered Sat but the scratch confirmation is Unsat", conds))

let unknown_of = function
  | Sat.Conflicts -> Solver.Out_of_conflicts
  | Sat.Decisions -> Solver.Out_of_decisions
  | Sat.Time -> Solver.Out_of_time

(* One assumption solve on the session instance, accounted as a scratch
   core solve is ([Solver.run_sat]): deadline anchored at [t0] (before
   any blasting the query needed), the hook fired between anchoring and
   search, one [sat_calls] — plus one [assumption_solves]. *)
let assume_solve t budget t0 assumptions =
  Cancel.poll ();
  let st = Solver.stats () in
  let sat = t.bctx.Bitblast.sat in
  let deadline =
    Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) budget.Solver.b_timeout_ms
  in
  Solver.run_query_hook ();
  st.Solver.sat_calls <- st.Solver.sat_calls + 1;
  st.Solver.assumption_solves <- st.Solver.assumption_solves + 1;
  st.Solver.learnt_retained <- st.Solver.learnt_retained + Sat.learnt_count sat;
  let r =
    Sat.solve ~assumptions ?max_conflicts:budget.Solver.b_max_conflicts
      ?max_decisions:budget.Solver.b_max_decisions ?deadline sat
  in
  st.Solver.solver_time <- st.Solver.solver_time +. Mono.elapsed t0;
  r

(* The incremental back end handed to [Solver.check_with]: decides the
   query's conjunction on the session instance under a fresh activation
   literal. *)
let core t budget conds =
  Cancel.poll ();
  let sat = t.bctx.Bitblast.sat in
  let t0 = Mono.now () in
  (match t.active with
  | Some g ->
    Sat.add_clause sat [ Sat.lit_neg g ];
    t.active <- None
  | None -> ());
  let g = Bitblast.fresh t.bctx in
  List.iter
    (fun (b : Expr.boolean) ->
      if not (Hashtbl.mem t.base_ids b.Expr.bid) then
        Sat.add_clause2 sat (Sat.lit_neg g) (Bitblast.blast_bool t.bctx b))
    conds;
  t.active <- Some g;
  match assume_solve t budget t0 [| g |] with
  | Sat.Unsat -> Solver.Unsat
  | Sat.Unknown why -> Solver.Unknown (unknown_of why)
  | Sat.Sat -> confirm budget conds

let check ?use_interval ?use_cache ?budget t conds =
  if Solver.certify_enabled () then
    (* assumption-failure Unsats carry no replayable DRUP derivation:
       under certification every query goes through the proof-checked
       scratch path instead (see header) *)
    Solver.check ?use_interval ?use_cache ?budget conds
  else Solver.check_with ?use_interval ?use_cache ?budget ~core:(core t) conds

(* --- the all-SAT row query -------------------------------------------- *)

let lit_true sat l = Sat.model_value sat (Sat.lit_var l) <> Sat.lit_sign l

(* The selector of a B condition: [s → lit(b)], added the first time any
   row of the session asks for [b] and shared by every later row. *)
let selector t (b : Expr.boolean) =
  match Hashtbl.find_opt t.selectors b.Expr.bid with
  | Some s -> s
  | None ->
    let s = Bitblast.fresh t.bctx in
    Sat.add_clause2 t.bctx.Bitblast.sat (Sat.lit_neg s) (Bitblast.blast_bool t.bctx b);
    Hashtbl.add t.selectors b.Expr.bid s;
    s

let all_sat ?budget t row cands =
  let budget = Solver.resolve_budget budget in
  let cands = Array.of_list cands in
  let answers = Array.make (Array.length cands) None in
  let open_ k = answers.(k) = None in
  if Solver.certify_enabled () then
    (* no assumption-failure Unsat is published under certification *)
    Array.iteri
      (fun k (_, p) -> answers.(k) <- Some (Solver.solve_scratch budget (Solver.pending_conds p)))
      cands
  else if cands <> [||] then begin
    let sat = t.bctx.Bitblast.sat in
    let t0 = Mono.now () in
    let a = Bitblast.fresh t.bctx and r = Bitblast.fresh t.bctx in
    Sat.add_clause2 sat (Sat.lit_neg a) (Bitblast.blast_bool t.bctx row);
    let sels = Array.map (fun (b, _) -> selector t b) cands in
    Sat.add_clause sat (Sat.lit_neg r :: Array.to_list sels);
    let lits = Array.map (fun (b, _) -> Bitblast.blast_bool t.bctx b) cands in
    (* the per-pair query [a ∧ b_k] is the assumption pair [a; s_k] *)
    let per_pair k p =
      match assume_solve t budget (Mono.now ()) [| a; sels.(k) |] with
      | Sat.Sat -> confirm budget (Solver.pending_conds p)
      | Sat.Unsat -> Solver.Unsat
      | Sat.Unknown why -> Solver.Unknown (unknown_of why)
    in
    let rec loop t0 off =
      match assume_solve t budget t0 (Array.of_list (a :: r :: off)) with
      | Sat.Sat ->
        (* every open candidate whose condition the model satisfies is an
           inconsistency: C_A(i) holds under [a], and the blast is a full
           Tseitin encoding, so [lit(b)] is [b]'s value in the model *)
        let off' = ref off in
        Array.iteri
          (fun k (_, p) ->
            if open_ k && lit_true sat lits.(k) then begin
              answers.(k) <- Some (confirm budget (Solver.pending_conds p));
              off' := Sat.lit_neg sels.(k) :: !off'
            end)
          cands;
        (* [r] forces an open selector, which forces its condition *)
        if !off' == off then
          raise (Solver.Solver_error ("all-SAT row model satisfies no open pair", [ row ]));
        loop (Mono.now ()) !off'
      | Sat.Unsat -> Array.iteri (fun k _ -> if open_ k then answers.(k) <- Some Solver.Unsat) cands
      | Sat.Unknown _ ->
        (* the budget bit: decide the rest of the row pair by pair, each
           solve under its own budget, as the per-pair loop would *)
        Array.iteri (fun k (_, p) -> if open_ k then answers.(k) <- Some (per_pair k p)) cands
    in
    loop t0 [];
    (* retire the row: its guarded clauses are satisfied for good *)
    Sat.add_clause sat [ Sat.lit_neg a ];
    Sat.add_clause sat [ Sat.lit_neg r ]
  end;
  Array.to_list
    (Array.mapi (fun k (_, p) -> Solver.settle p (Option.get answers.(k))) cands)
