(* Template rows: the crosscheck's incremental back end (DESIGN §5.11).

   The B side of a crosscheck is blasted once into a frozen template,
   each [C_B(j)] under a selector [s_j → lit(C_B(j))].  A row restores
   the calling domain's recycled row instance from it ({!Bitblast.restore},
   array blits) and asserts [C_A(i)] as a hard clause.  Selectors only
   imply their conditions, so one left free never constrains a model.

   [all_sat] adds the hard candidate clause [⋁ s_j] over the row's
   surviving pairs and solves without assumptions.  Every open candidate
   whose [lit(C_B(j))] the model makes true is an inconsistency ([C_A(i)]
   holds, and the Tseitin literal is [C_B(j)]'s value in the model); its
   selector is then switched off by a unit [¬s_j] and the row solved
   again, until a plain Unsat.  [pair] decides one candidate by the
   assumption solve [[s_j]]: the shape under a chaos plan, whose fault
   streams draw once per pair.  The template holds one side
   only, not both agents' conditions (the deleted shared base of DESIGN
   §5.9), and every row starts from a clean copy of it.

   A Sat is published with the witness a hook-suppressed scratch solve
   re-derives ({!Solver.solve_scratch} with [fire_hook:false]): the row's
   own model is correct but not canonical, and a confirm that answers
   Unsat raises {!Solver.Solver_error}.  An Unsat is published directly:
   both modes are sound and complete when budgets do not bite.  Each row
   solve fires the query hook once, as a scratch core solve does.  Certify
   mode solves from scratch: an assumption-failure Unsat derives no empty
   clause, and the template logs no proof. *)

type template = {
  tpl : Bitblast.ctx;
  sel : (int, int * int) Hashtbl.t; (* bid of a B condition -> (selector, its literal) *)
}

let template conds =
  let st = Solver.stats () in
  st.Solver.sessions_opened <- st.Solver.sessions_opened + 1;
  let tpl = Bitblast.create () in
  let sel = Hashtbl.create 64 in
  List.iter
    (fun (b : Expr.boolean) ->
      if not (Hashtbl.mem sel b.Expr.bid) then begin
        let s = Bitblast.fresh tpl in
        let l = Bitblast.blast_bool tpl b in
        Sat.add_clause2 tpl.Bitblast.sat (Sat.lit_neg s) l;
        Hashtbl.add sel b.Expr.bid (s, l)
      end)
    conds;
  { tpl; sel }

(* The calling domain's row instance, recycled across rows and checks. *)
let row_key = Domain.DLS.new_key (fun () -> Bitblast.create ())

type row = { r_ctx : Bitblast.ctx; r_t : template; r_a : Expr.boolean }

let row t a =
  let r = Domain.DLS.get row_key in
  Bitblast.restore r ~template:t.tpl;
  Bitblast.assert_bool r a;
  { r_ctx = r; r_t = t; r_a = a }

(* Canonical witness for a row Sat: re-derive the model on a fresh
   instance, so the published assignment is the one scratch mode would
   publish. *)
let confirm budget conds =
  match Solver.solve_scratch ~fire_hook:false budget conds with
  | (Solver.Sat _ | Solver.Unknown _) as r -> r
  | Solver.Unsat ->
    raise
      (Solver.Solver_error
         ("crosscheck row answered Sat but the scratch confirmation is Unsat", conds))

(* One solve on the row instance, accounted as a scratch core solve is
   ([Solver.run_sat]): deadline anchored at [t0] (before any blasting the
   query needed), the hook fired between anchoring and search, one
   [sat_calls] — plus one [assumption_solves]. *)
let solve ?assumptions r budget t0 =
  let st = Solver.stats () in
  let sat = r.r_ctx.Bitblast.sat in
  let deadline =
    Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) budget.Solver.b_timeout_ms
  in
  Solver.run_query_hook ();
  st.Solver.sat_calls <- st.Solver.sat_calls + 1;
  st.Solver.assumption_solves <- st.Solver.assumption_solves + 1;
  st.Solver.learnt_retained <- st.Solver.learnt_retained + Sat.learnt_count sat;
  let res =
    Sat.solve ?assumptions ?max_conflicts:budget.Solver.b_max_conflicts
      ?max_decisions:budget.Solver.b_max_decisions ?deadline sat
  in
  st.Solver.solver_time <- st.Solver.solver_time +. Mono.elapsed t0;
  res

(* The query [a ∧ b] as the assumption solve [[s_b]]. *)
let decide_pair r budget t0 (b : Expr.boolean) conds =
  match solve ~assumptions:[| fst (Hashtbl.find r.r_t.sel b.Expr.bid) |] r budget t0 with
  | Sat.Sat -> confirm budget conds
  | Sat.Unsat -> Solver.Unsat
  | Sat.Unknown Sat.Conflicts -> Solver.Unknown Solver.Out_of_conflicts
  | Sat.Unknown Sat.Decisions -> Solver.Unknown Solver.Out_of_decisions
  | Sat.Unknown Sat.Time -> Solver.Unknown Solver.Out_of_time

let pair ?budget r b =
  if Solver.certify_enabled () then Solver.check ?budget [ r.r_a; b ]
  else
    Solver.check_with ?budget
      ~core:(fun budget conds -> decide_pair r budget (Mono.now ()) b conds)
      [ r.r_a; b ]

let all_sat ?budget t a cands =
  let budget = Solver.resolve_budget budget in
  let cands = Array.of_list cands in
  let answers = Array.make (Array.length cands) None in
  let open_ k = answers.(k) = None in
  if Solver.certify_enabled () then
    Array.iteri
      (fun k (_, p) -> answers.(k) <- Some (Solver.solve_scratch budget (Solver.pending_conds p)))
      cands
  else if cands <> [||] then begin
    let t0 = Mono.now () in
    let r = row t a in
    let sat = r.r_ctx.Bitblast.sat in
    let sels = Array.map (fun ((b : Expr.boolean), _) -> Hashtbl.find t.sel b.Expr.bid) cands in
    Sat.add_clause sat (Array.to_list (Array.map fst sels));
    let rec loop t0 =
      match solve r budget t0 with
      | Sat.Sat ->
        let found = ref [] in
        Array.iteri
          (fun k (_, p) ->
            let l = snd sels.(k) in
            if open_ k && Sat.model_value sat (Sat.lit_var l) <> Sat.lit_sign l then begin
              answers.(k) <- Some (confirm budget (Solver.pending_conds p));
              found := k :: !found
            end)
          cands;
        (* the candidate clause forces an open selector, which forces its
           condition *)
        if !found = [] then
          raise (Solver.Solver_error ("all-SAT row model satisfies no open pair", []));
        (* adding a clause unwinds the model, so only once it is read *)
        List.iter (fun k -> Sat.add_clause sat [ Sat.lit_neg (fst sels.(k)) ]) !found;
        loop (Mono.now ())
      | Sat.Unsat -> Array.iteri (fun k _ -> if open_ k then answers.(k) <- Some Solver.Unsat) cands
      | Sat.Unknown _ ->
        (* the budget bit: decide the rest of the row pair by pair, each
           solve under its own budget *)
        Array.iteri
          (fun k ((b : Expr.boolean), p) ->
            if open_ k then
              answers.(k) <- Some (decide_pair r budget (Mono.now ()) b (Solver.pending_conds p)))
          cands
    in
    loop t0
  end;
  Array.to_list (Array.mapi (fun k (_, p) -> Solver.settle p (Option.get answers.(k))) cands)
