(* Incremental crosscheck: MiniSat-style assumption solving in the SAT
   core, template rows' equivalence with scratch solving, and the
   end-to-end claim — a crosscheck report is byte-identical whether the
   pairs were solved on rows restored from a template (the default) or on
   fresh per-pair instances, across randomized pair matrices, chaos
   seeds, certify mode, and worker counts. *)

open Smt
module Runner = Harness.Runner
module Test_spec = Harness.Test_spec
module Chaos = Harness.Chaos

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_clean_world f =
  Fun.protect
    ~finally:(fun () ->
      Chaos.deactivate ();
      Mono.reset_skew ();
      Solver.set_certify false;
      Solver.set_default_budget Solver.no_budget;
      Solver.clear_cache ())
    f

(* --- the SAT core's assumption interface ------------------------------- *)

let test_sat_assumptions () =
  let s = Sat.create () in
  let va = Sat.new_var s and vb = Sat.new_var s in
  let a = 2 * va and b = 2 * vb in
  Sat.add_clause s [ a; b ];
  check_bool "sat under [not a]" true (Sat.solve ~assumptions:[| Sat.lit_neg a |] s = Sat.Sat);
  check_bool "the model respects the assumption" true (not (Sat.model_value s va));
  check_bool "and satisfies the clause through b" true (Sat.model_value s vb);
  check_bool "unsat under contradictory assumptions" true
    (Sat.solve ~assumptions:[| Sat.lit_neg a; Sat.lit_neg b |] s = Sat.Unsat);
  (* unsat-under-assumptions must not poison the instance *)
  check_bool "instance survives an assumption failure" true (Sat.solve s = Sat.Sat);
  (* an assumption contradicted at level 0 is the degenerate failure *)
  Sat.add_clause s [ a ];
  check_bool "unsat against a root-level unit" true
    (Sat.solve ~assumptions:[| Sat.lit_neg a |] s = Sat.Unsat);
  (* an assumption already true at level 0 costs an empty decision level *)
  check_bool "already-true assumptions are free" true
    (Sat.solve ~assumptions:[| a; b |] s = Sat.Sat);
  check_bool "still sat with no assumptions at all" true (Sat.solve s = Sat.Sat)

let test_sat_incremental_growth () =
  (* clauses and variables may arrive between solves; earlier answers must
     not leak into later ones *)
  let s = Sat.create () in
  let v1 = Sat.new_var s in
  Sat.add_clause s [ (2 * v1) + 1 ];
  check_bool "first solve" true (Sat.solve s = Sat.Sat);
  let v2 = Sat.new_var s in
  Sat.add_clause s [ 2 * v2 ];
  Sat.add_clause s [ (2 * v2) + 1; 2 * v1 ];
  (* v2 ∧ (¬v2 ∨ v1) forces v1, contradicting the first unit: global unsat *)
  check_bool "growing into unsat is detected" true (Sat.solve s = Sat.Unsat);
  check_bool "a globally unsat instance stays unsat" true
    (Sat.solve ~assumptions:[| 2 * v1 |] s = Sat.Unsat)

(* --- template rows ------------------------------------------------------ *)

let vars = lazy (List.map (fun n -> Expr.var ~width:8 ("inc." ^ n)) [ "x"; "y"; "z" ])

let random_cond rng =
  let vars = Lazy.force vars in
  let v = List.nth vars (Random.State.int rng (List.length vars)) in
  let c = Expr.const ~width:8 (Int64.of_int (Random.State.int rng 256)) in
  match Random.State.int rng 4 with
  | 0 -> Expr.ult v c
  | 1 -> Expr.eq v c
  | 2 -> Expr.not_ (Expr.eq v c)
  | _ -> Expr.ult c v

let test_session_matches_scratch_queries () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      let rng = Random.State.make [| 42 |] in
      for _ = 1 to 6 do
        let base = Expr.balanced_disj (List.init 3 (fun _ -> random_cond rng)) in
        let extras =
          List.init 12 (fun _ -> Expr.balanced_disj (List.init 2 (fun _ -> random_cond rng)))
        in
        let row = Session.row (Session.template extras) base in
        List.iter
          (fun extra ->
            Solver.clear_cache ();
            let r_inc = Session.pair row extra in
            Solver.clear_cache ();
            let r_scr = Solver.check [ base; extra ] in
            match (r_inc, r_scr) with
            | Solver.Sat m1, Solver.Sat m2 ->
              check_bool "session publishes the scratch witness" true
                (Model.bindings m1 = Model.bindings m2)
            | Solver.Unsat, Solver.Unsat -> ()
            | _ -> Alcotest.fail "session verdict differs from scratch")
          extras
      done)

(* One row query decides every candidate a model satisfies: with
   [x < 10 ∧ x = y] as the row, the first model satisfies both [x < 20]
   and [y < 30], so the row costs that Sat plus the final Unsat that
   refutes [x xor y ≠ 0] (beyond the interval filter) — two solves for
   three pairs, witnesses as scratch's. *)
let test_all_sat_row_query () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      let x = Expr.var ~width:8 "inc.allsat.x" and y = Expr.var ~width:8 "inc.allsat.y" in
      let c n = Expr.const ~width:8 n in
      let row = Expr.and_ (Expr.ult x (c 10L)) (Expr.eq x y) in
      let bs =
        [ Expr.ult x (c 20L); Expr.not_ (Expr.eq (Expr.logxor x y) (c 0L)); Expr.ult y (c 30L) ]
      in
      let scratch = List.map (fun b -> Solver.clear_cache (); Solver.check [ row; b ]) bs in
      Solver.clear_cache ();
      let st = Solver.stats () in
      let solves0 = st.Solver.assumption_solves and queries0 = st.Solver.queries in
      let t = Session.template bs in
      let cands =
        List.map
          (fun b ->
            match Solver.front [ row; b ] with
            | Solver.Pending p -> (b, p)
            | Solver.Decided _ -> Alcotest.fail "the front half decided a pair")
          bs
      in
      let answers = Session.all_sat t row cands in
      check_int "one front-half query per pair" (queries0 + 3) st.Solver.queries;
      check_int "one Sat for both overlapping pairs, one final Unsat" (solves0 + 2)
        st.Solver.assumption_solves;
      List.iter2
        (fun r_scr r_all ->
          match (r_scr, r_all) with
          | Solver.Sat m1, Solver.Sat m2 ->
            check_bool "all-SAT publishes the scratch witness" true
              (Model.bindings m1 = Model.bindings m2)
          | Solver.Unsat, Solver.Unsat -> ()
          | _ -> Alcotest.fail "all-SAT verdict differs from scratch")
        scratch answers;
      let hits0 = st.Solver.cache_hits in
      List.iter (fun b -> ignore (Solver.check [ row; b ])) bs;
      check_int "every core-decided pair was memoized" (hits0 + 3) st.Solver.cache_hits)

(* --- crosscheck equivalence ------------------------------------------- *)

(* the one nondeterministic field is wall time; everything else must be
   byte-identical between the two solving modes *)
let canon (o : Soft.Crosscheck.outcome) =
  Format.asprintf "%a" Soft.Crosscheck.pp { o with Soft.Crosscheck.o_check_time = 0.0 }

(* A synthetic grouped run: randomized conditions over a tiny shared
   variable pool, result keys drawn so the two sides overlap on some
   (those pairs are skipped as equal) and differ on the rest.  With
   [~shared], every group also admits one common condition, so the
   groups overlap and one model can satisfy several of them at once. *)
let mk_grouped ?shared ~rng ~agent ~key_base n_groups =
  let groups =
    List.init n_groups (fun k ->
        let members = List.init (1 + Random.State.int rng 3) (fun _ -> random_cond rng) in
        let members = match shared with Some c -> c :: members | None -> members in
        let result =
          { Openflow.Trace.trace = [ Printf.sprintf "out:%d" (key_base + k) ]; crash = None }
        in
        {
          Soft.Grouping.g_result = result;
          g_key = Openflow.Trace.result_key result;
          g_cond = Expr.balanced_disj members;
          g_member_conds = members;
          g_path_count = List.length members;
        })
  in
  {
    Soft.Grouping.gr_agent = agent;
    gr_test = "synthetic";
    gr_groups = groups;
    gr_group_time = 0.0;
  }

(* Seeds 1–8 build small matrices (one row per block); seeds 9–12 build
   17–40 rows, so the all-SAT blocks hold several rows each, over B
   groups that all admit [inc.x < 64] — one model then often satisfies
   several B groups of a row at once. *)
let test_random_matrices_identical () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      let budgeted_undecided = ref 0 in
      for seed = 1 to 12 do
        let rng = Random.State.make [| seed |] in
        let wide = seed > 8 in
        let na = if wide then 17 + Random.State.int rng 24 else 2 + Random.State.int rng 5 in
        let nb = 2 + Random.State.int rng 5 in
        let shared =
          if wide then
            Some (Expr.ult (List.hd (Lazy.force vars)) (Expr.const ~width:8 64L))
          else None
        in
        (* overlapping key ranges: some equal pairs, some crosschecked *)
        let a = mk_grouped ~rng ~agent:"A" ~key_base:0 na in
        let b = mk_grouped ?shared ~rng ~agent:"B" ~key_base:(Random.State.int rng 3) nb in
        let run ~incremental ~jobs =
          Solver.clear_cache ();
          Soft.Crosscheck.check ~jobs ~incremental a b
        in
        let scratch = run ~incremental:false ~jobs:1 in
        let msg s = Printf.sprintf "seed %d: %s" seed s in
        Alcotest.(check string)
          (msg "incremental -j1 byte-identical to scratch")
          (canon scratch)
          (canon (run ~incremental:true ~jobs:1));
        Alcotest.(check string)
          (msg "incremental -j4 byte-identical to scratch")
          (canon scratch)
          (canon (run ~incremental:true ~jobs:4));
        (* under a budget, a session's Unknown depends on the solver state
           it runs against; blocks are fixed and sessions block-local, so
           the report must still not depend on the worker count *)
        let budget = Solver.budget ~max_conflicts:(seed mod 3) () in
        let budgeted jobs =
          Solver.clear_cache ();
          Soft.Crosscheck.check ~budget ~jobs a b
        in
        let b1 = budgeted 1 in
        budgeted_undecided := !budgeted_undecided + Soft.Crosscheck.undecided_count b1;
        Alcotest.(check string)
          (msg "budgeted -j4 byte-identical to budgeted -j1")
          (canon b1) (canon (budgeted 4))
      done;
      check_bool "the budgets leave some pair undecided" true
        (!budgeted_undecided > 0))

let grouped_runs () =
  let spec = Test_spec.packet_out () in
  let run_a = Runner.execute ~max_paths:60 Switches.Reference_switch.agent spec in
  let run_b = Runner.execute ~max_paths:60 Switches.Modified_switch.agent spec in
  (Soft.Grouping.of_run run_a, Soft.Grouping.of_run run_b)

let test_real_runs_identical () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      let a, b = grouped_runs () in
      let run ~incremental ~jobs =
        Solver.clear_cache ();
        Soft.Crosscheck.check ~jobs ~incremental a b
      in
      let scratch = run ~incremental:false ~jobs:1 in
      check_bool "some inconsistencies to disagree about" true
        (Soft.Crosscheck.count scratch > 0);
      Alcotest.(check string) "incremental -j1 identical on real runs" (canon scratch)
        (canon (run ~incremental:true ~jobs:1));
      Alcotest.(check string) "incremental -j4 identical on real runs" (canon scratch)
        (canon (run ~incremental:true ~jobs:4)))

let test_chaos_seeds_identical () =
  (* same chaos plan, same per-query fault stream: at -j1 the two modes
     fire the query hook at the same stream positions, so even the
     degraded reports must match byte for byte across all seeds *)
  with_clean_world (fun () ->
      Solver.set_certify false;
      let a, b = grouped_runs () in
      for seed = 1 to 8 do
        let run incremental =
          Solver.clear_cache ();
          Mono.reset_skew ();
          Chaos.install (Chaos.plan ~seed ~rate:0.3 ());
          let o = Soft.Crosscheck.check ~jobs:1 ~incremental a b in
          Chaos.deactivate ();
          Mono.reset_skew ();
          o
        in
        let scratch = run false in
        Alcotest.(check string)
          (Printf.sprintf "chaos seed %d: incremental report identical" seed)
          (canon scratch)
          (canon (run true))
      done)

let test_certify_forces_scratch_and_matches () =
  with_clean_world (fun () ->
      let a, b = grouped_runs () in
      Solver.set_certify true;
      let st = Solver.stats () in
      let sessions0 = st.Solver.sessions_opened in
      let proofs0 = st.Solver.proofs_checked in
      Solver.clear_cache ();
      let o_inc = Soft.Crosscheck.check ~jobs:1 ~incremental:true a b in
      check_int "certify mode opens no sessions" sessions0 st.Solver.sessions_opened;
      check_bool "certify mode still checks proofs" true (st.Solver.proofs_checked > proofs0);
      Solver.clear_cache ();
      let o_scr = Soft.Crosscheck.check ~jobs:1 ~incremental:false a b in
      Alcotest.(check string) "reports identical under certify" (canon o_scr) (canon o_inc))

(* --- the all-SAT counters on real runs --------------------------------- *)

(* Cold, unbudgeted, at -j1: every pair is one front-half query, a row
   costs at most one solve per inconsistency plus its final Unsat, and
   one template is built per check.  Every
   core-decided pair is memoized, so a warm re-run never reaches the SAT
   core. *)
let test_row_query_counters () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      let a, b = grouped_runs () in
      let rows =
        List.length
          (List.filter
             (fun (ga : Soft.Grouping.group) ->
               List.exists
                 (fun (gb : Soft.Grouping.group) -> ga.Soft.Grouping.g_key <> gb.Soft.Grouping.g_key)
                 b.Soft.Grouping.gr_groups)
             a.Soft.Grouping.gr_groups)
      in
      let st = Solver.stats () in
      Solver.clear_cache ();
      Solver.reset_stats ();
      let o = Soft.Crosscheck.check ~jobs:1 a b in
      check_int "queries = pairs checked" o.Soft.Crosscheck.o_pairs_checked st.Solver.queries;
      check_bool "assumption solves <= rows + inconsistencies" true
        (st.Solver.assumption_solves <= rows + Soft.Crosscheck.count o);
      check_int "one template per check" 1 st.Solver.sessions_opened;
      Solver.reset_stats ();
      let warm = Soft.Crosscheck.check ~jobs:1 a b in
      Alcotest.(check string) "warm report identical" (canon o) (canon warm);
      check_int "warm re-run: no SAT calls" 0 st.Solver.sat_calls;
      check_int "warm re-run: no assumption solves" 0 st.Solver.assumption_solves)

(* --- the session counters --------------------------------------------- *)

let test_session_counters_and_merge () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      let a, b = grouped_runs () in
      let st = Solver.stats () in
      let sessions0 = st.Solver.sessions_opened in
      let assumes0 = st.Solver.assumption_solves in
      Solver.clear_cache ();
      (* default flags: template rows are the crosscheck's fast path *)
      ignore (Soft.Crosscheck.check ~jobs:4 a b);
      (* the template is built on this domain; the rows ran on worker
         domains, and worker_exit folded their counters back into this
         domain's record *)
      check_bool "default flags build a template" true
        (st.Solver.sessions_opened > sessions0);
      check_bool "assumption solves merged back" true (st.Solver.assumption_solves > assumes0);
      (* merge_stats folds every new counter *)
      let src =
        {
          Solver.queries = 0;
          const_hits = 0;
          interval_hits = 0;
          cache_hits = 0;
          sat_calls = 0;
          sat_results = 0;
          unsat_results = 0;
          unknown_results = 0;
          cache_evictions = 0;
          solver_time = 0.0;
          proofs_checked = 0;
          proofs_failed = 0;
          sessions_opened = 3;
          assumption_solves = 7;
          scratch_fallbacks = 2;
          tiny_session_fallbacks = 0;
          learnt_retained = 11;
          canonical_hits = 0;
          canon_small_skips = 0;
          rows_pruned = 0;
          pairs_skipped_by_pruning = 0;
          shared_solves = 0;
          bases_adopted = 0;
          clauses_exported = 0;
          clauses_imported = 0;
          expr_nodes = 0;
        }
      in
      let s1 = st.Solver.sessions_opened and a1 = st.Solver.assumption_solves in
      let f1 = st.Solver.scratch_fallbacks and l1 = st.Solver.learnt_retained in
      Solver.merge_stats ~into:st src;
      check_int "merge adds sessions_opened" (s1 + 3) st.Solver.sessions_opened;
      check_int "merge adds assumption_solves" (a1 + 7) st.Solver.assumption_solves;
      check_int "merge adds scratch_fallbacks" (f1 + 2) st.Solver.scratch_fallbacks;
      check_int "merge adds learnt_retained" (l1 + 11) st.Solver.learnt_retained)

let suite =
  [
    ("sat solve under assumptions", `Quick, test_sat_assumptions);
    ("sat instance grows between solves", `Quick, test_sat_incremental_growth);
    ("session answers match scratch queries", `Quick, test_session_matches_scratch_queries);
    ("all-SAT row query decides overlapping pairs at once", `Quick, test_all_sat_row_query);
    ("randomized matrices: incremental = scratch", `Quick, test_random_matrices_identical);
    ("real runs: incremental = scratch at -j1/-j4", `Quick, test_real_runs_identical);
    ("chaos seeds: incremental = scratch", `Quick, test_chaos_seeds_identical);
    ("certify mode falls back to scratch", `Quick, test_certify_forces_scratch_and_matches);
    ("all-SAT counters on real runs, warm re-run solves nothing", `Quick,
     test_row_query_counters);
    ("session counters fold across domains", `Quick, test_session_counters_and_merge);
  ]
