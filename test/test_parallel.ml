(* Multicore crosscheck: the work-stealing pool's contract, domain-safe
   expression interning and per-domain solver contexts, and the central
   determinism claim — a crosscheck report is byte-identical whatever
   [-j N] it ran at, because all merging is row-major and all shared
   mutation stays on the coordinating domain. *)

open Smt
module Pool = Harness.Pool
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

(* --- the pool itself -------------------------------------------------- *)

let test_pool_results_in_task_order () =
  let tasks = Array.init 100 Fun.id in
  let out = Pool.run_exn ~jobs:4 (fun x -> x * x) tasks in
  check_bool "results are in task order, not completion order" true
    (out = Array.init 100 (fun i -> i * i));
  check_bool "empty input, no domains" true (Pool.run_exn ~jobs:4 Fun.id [||] = [||]);
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Pool.run: jobs must be positive") (fun () ->
      ignore (Pool.run ~jobs:0 Fun.id [| 1 |]))

let test_pool_on_result_serialized () =
  (* [on_result] runs on the caller's domain: plain unsynchronized state
     mutated there must come out consistent even at -j 4 *)
  let seen = ref [] in
  let out =
    Pool.run_exn ~jobs:4
      ~on_result:(fun i r -> seen := (i, r) :: !seen)
      (fun x -> 2 * x)
      (Array.init 50 Fun.id)
  in
  check_int "every task delivered exactly once" 50 (List.length !seen);
  List.iter (fun (i, r) -> check_int "payload matches its index" (2 * i) r) !seen;
  check_bool "return value still in task order" true (out = Array.init 50 (fun i -> 2 * i))

let test_pool_sequential_fast_path () =
  (* jobs = 1 must be the exact legacy shape: caller's domain, submission
     order, no worker hooks *)
  let hooks = ref 0 in
  let order = ref [] in
  let caller = Domain.self () in
  let on_caller = ref true in
  ignore
    (Pool.run_exn ~jobs:1
       ~worker_init:(fun () -> incr hooks)
       ~worker_exit:(fun () -> incr hooks)
       ~on_result:(fun i _ -> order := i :: !order)
       (fun x ->
         if Domain.self () <> caller then on_caller := false;
         x)
       (Array.init 20 Fun.id));
  check_int "no worker hooks at -j 1" 0 !hooks;
  check_bool "tasks ran on the caller's domain" true !on_caller;
  check_bool "completion order is submission order" true
    (List.rev !order = List.init 20 Fun.id)

let test_pool_exception_propagates_after_join () =
  let exits = Atomic.make 0 in
  (match
     Pool.run ~jobs:4 ~fail_fast:true
       ~worker_exit:(fun () -> Atomic.incr exits)
       (fun x -> if x = 13 then failwith "boom" else x)
       (Array.init 40 Fun.id)
   with
  | _ -> Alcotest.fail "task exception was swallowed"
  | exception Failure msg ->
    Alcotest.(check string) "the task's own exception" "boom" msg);
  (* every spawned worker was joined, and its exit hook ran despite the
     cancellation *)
  check_bool "worker_exit ran on every worker" true (Atomic.get exits >= 1)

(* the new default: a task that raises costs that task, not the batch *)
let test_pool_outcome_mode () =
  let out =
    Pool.run ~jobs:4
      (fun x -> if x mod 7 = 3 then failwith (string_of_int x) else x * x)
      (Array.init 30 Fun.id)
  in
  Array.iteri
    (fun i o ->
      match (o, i mod 7 = 3) with
      | Ok v, false -> check_int "surviving task's value" (i * i) v
      | Error (Failure msg, _), true -> Alcotest.(check string) "its own exception" (string_of_int i) msg
      | Ok _, true -> Alcotest.fail "poison task reported Ok"
      | Error _, false -> Alcotest.fail "healthy task reported Error"
      | _ -> Alcotest.fail "unexpected exception")
    out;
  (* same contract on the -j 1 sequential fast path *)
  let seq =
    Pool.run ~jobs:1 (fun x -> if x = 2 then raise Exit else x) (Array.init 5 Fun.id)
  in
  check_bool "sequential Error at the poison index" true
    (match seq.(2) with Error (Exit, _) -> true | _ -> false);
  check_bool "sequential later tasks still ran" true (seq.(4) = Ok 4);
  (* on_result sees the Error exactly once, like any other outcome *)
  let errs = ref 0 in
  ignore
    (Pool.run ~jobs:4
       ~on_result:(fun _ -> function Error _ -> incr errs | Ok _ -> ())
       (fun x -> if x = 5 then failwith "once" else x)
       (Array.init 20 Fun.id));
  check_int "one Error delivered to on_result" 1 !errs

let test_pool_worker_hooks_pair_up () =
  let inits = Atomic.make 0 and exits = Atomic.make 0 in
  ignore
    (Pool.run ~jobs:3
       ~worker_init:(fun () -> Atomic.incr inits)
       ~worker_exit:(fun () -> Atomic.incr exits)
       Fun.id (Array.init 9 Fun.id));
  check_int "every init has its exit" (Atomic.get inits) (Atomic.get exits);
  check_bool "at least one worker, at most jobs" true
    (Atomic.get inits >= 1 && Atomic.get inits <= 3)

(* --- domain-safe interning and solver contexts ------------------------ *)

let test_interning_shared_across_domains () =
  (* four domains interning the same names must agree on the ids — the
     hash-cons tables are global (locked), not per-domain, so expressions
     built on any domain remain comparable everywhere *)
  let ids =
    Pool.run_exn ~jobs:4
      (fun k -> Expr.var_id (Expr.make_var (Printf.sprintf "par.v%d" (k mod 4)) 16))
      (Array.init 16 Fun.id)
  in
  Array.iteri
    (fun k id -> check_int "same name, same id, any domain" ids.(k mod 4) id)
    ids;
  (* and a variable interned on a worker resolves on the main domain *)
  match Expr.var_by_id ids.(0) with
  | Some v -> Alcotest.(check string) "name round-trips" "par.v0" (Expr.var_name v)
  | None -> Alcotest.fail "worker-interned variable invisible to the main domain"

let test_solver_contexts_are_per_domain () =
  with_clean_world (fun () ->
      let x = Expr.var ~width:8 "par.iso" in
      ignore (Solver.check ~use_cache:false [ Expr.ult x (Expr.const ~width:8 10L) ]);
      let main_queries = (Solver.stats ()).Solver.queries in
      check_bool "main context counted its query" true (main_queries > 0);
      let observed =
        Pool.run_exn ~jobs:2
          (fun _ ->
            (* a fresh domain starts from the built-in defaults: empty
               stats, certify off — whatever main has done *)
            Solver.set_certify true;
            ((Solver.stats ()).Solver.queries, Solver.certify_enabled ()))
          (Array.init 2 Fun.id)
      in
      Array.iter
        (fun (q, c) ->
          check_int "worker stats start fresh" 0 q;
          check_bool "worker toggled its own certify flag" true c)
        observed;
      check_bool "worker toggles never leak into main" true
        (not (Solver.certify_enabled ()));
      check_int "main stats undisturbed" main_queries (Solver.stats ()).Solver.queries)

let test_config_handoff_and_stats_merge () =
  with_clean_world (fun () ->
      Solver.set_default_budget (Solver.budget ~max_conflicts:123 ());
      Solver.set_certify true;
      let worker_init, worker_exit = Soft.Crosscheck.solver_pool_hooks () in
      let before = (Solver.stats ()).Solver.queries in
      let observed =
        Pool.run_exn ~jobs:2 ~worker_init ~worker_exit
          (fun k ->
            let x = Expr.var ~width:8 (Printf.sprintf "par.cfg%d" k) in
            ignore (Solver.check [ Expr.eq_const x (Int64.of_int k) ]);
            ((Solver.get_default_budget ()).Solver.b_max_conflicts, Solver.certify_enabled ()))
          (Array.init 4 Fun.id)
      in
      Array.iter
        (fun (mc, certify) ->
          check_bool "worker inherited the conflict budget" true (mc = Some 123);
          check_bool "worker inherited certify mode" true certify)
        observed;
      check_bool "worker queries merged back into the caller's stats" true
        ((Solver.stats ()).Solver.queries >= before + 4))

(* --- crosscheck determinism across -j --------------------------------- *)

let grouped_runs () =
  let spec = Test_spec.packet_out () in
  let run_a = Runner.execute ~max_paths:60 Switches.Reference_switch.agent spec in
  let run_b = Runner.execute ~max_paths:60 Switches.Modified_switch.agent spec in
  (Soft.Grouping.of_run run_a, Soft.Grouping.of_run run_b)

(* the one nondeterministic field is wall time; everything else must be
   byte-identical across worker counts *)
let canon (o : Soft.Crosscheck.outcome) =
  Format.asprintf "%a" Soft.Crosscheck.pp { o with Soft.Crosscheck.o_check_time = 0.0 }

let test_jobs_report_identical () =
  with_clean_world (fun () ->
      let a, b = grouped_runs () in
      Solver.clear_cache ();
      let o1 = Soft.Crosscheck.check ~jobs:1 a b in
      Solver.clear_cache ();
      let o4 = Soft.Crosscheck.check ~jobs:4 a b in
      check_bool "some inconsistencies to disagree about" true (Soft.Crosscheck.count o1 > 0);
      Alcotest.(check string) "-j 4 report is byte-identical to -j 1" (canon o1) (canon o4);
      check_int "same exit status" (Soft.Report.exit_status o1) (Soft.Report.exit_status o4))

let test_parallel_checkpoint_resume () =
  with_clean_world (fun () ->
      let a, b = grouped_runs () in
      let file = Filename.temp_file "soft_parallel_ckpt" ".txt" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          Solver.clear_cache ();
          let full = Soft.Crosscheck.check ~jobs:4 ~checkpoint:file ~checkpoint_every:4 a b in
          check_bool "checkpoint written" true (Sys.file_exists file);
          (* resuming the completed snapshot replays every pair: no new
             solver work on any domain *)
          let before = (Solver.stats ()).Solver.queries in
          let resumed = Soft.Crosscheck.check ~jobs:4 ~resume:file a b in
          check_int "a complete snapshot costs no queries" before
            (Solver.stats ()).Solver.queries;
          Alcotest.(check string) "resumed outcome identical" (canon full) (canon resumed);
          (* a -j 1 snapshot resumes under -j 4 (and vice versa): the file
             records pair outcomes, not scheduling *)
          Solver.clear_cache ();
          let seq = Soft.Crosscheck.check ~jobs:1 ~checkpoint:file a b in
          let cross = Soft.Crosscheck.check ~jobs:4 ~resume:file a b in
          Alcotest.(check string) "-j 1 snapshot, -j 4 resume" (canon seq) (canon cross)))

let test_chaos_invariant_at_j4 () =
  (* the 8-seed chaos soundness invariant, re-run at -j 4: which pair a
     fault lands on now depends on scheduling, but faults must still only
     ever degrade pairs to undecided *)
  with_clean_world (fun () ->
      let a, b = grouped_runs () in
      Solver.clear_cache ();
      let baseline = Soft.Crosscheck.check a b in
      let inc_keys (o : Soft.Crosscheck.outcome) =
        List.map
          (fun (i : Soft.Crosscheck.inconsistency) ->
            ( Openflow.Trace.result_key i.Soft.Crosscheck.i_result_a,
              Openflow.Trace.result_key i.Soft.Crosscheck.i_result_b ))
          o.Soft.Crosscheck.o_inconsistencies
      in
      let base_incs = inc_keys baseline in
      for seed = 1 to 8 do
        Solver.clear_cache ();
        Mono.reset_skew ();
        Chaos.install (Chaos.plan ~seed ~rate:0.3 ());
        let o =
          Soft.Crosscheck.check ~jobs:4 ~budget:(Solver.budget ~timeout_ms:60_000 ()) a b
        in
        Chaos.deactivate ();
        let msg s = Printf.sprintf "seed %d at -j4: %s" seed s in
        check_int (msg "same pairs compared") baseline.Soft.Crosscheck.o_pairs_checked
          o.Soft.Crosscheck.o_pairs_checked;
        List.iter
          (fun k ->
            check_bool (msg "no invented inconsistencies") true (List.mem k base_incs))
          (inc_keys o);
        List.iter
          (fun k ->
            if not (List.mem k (inc_keys o)) then
              check_bool (msg "lost verdicts became undecided") true
                (List.mem k o.Soft.Crosscheck.o_pairs_undecided))
          base_incs;
        check_bool (msg "fault count bounded by undecided") true
          (o.Soft.Crosscheck.o_pair_faults <= Soft.Crosscheck.undecided_count o)
      done)

(* --- row sessions at any -j ------------------------------------------- *)

let test_row_session_parity () =
  (* per-row sessions are the default at every -j, and each lives inside
     one row task: the report stays byte-identical at any -j, in the
     default configuration, under a chaos schedule, and in certify mode
     (where every row takes the scratch path) *)
  with_clean_world (fun () ->
      let a, b = grouped_runs () in
      let run ?(certify = false) ?chaos_seed jobs =
        Solver.clear_cache ();
        Mono.reset_skew ();
        Solver.set_certify certify;
        (match chaos_seed with
        | Some seed -> Chaos.install (Chaos.plan ~seed ~rate:0.3 ())
        | None -> ());
        let o = Soft.Crosscheck.check ~jobs a b in
        Chaos.deactivate ();
        Solver.set_certify false;
        o
      in
      let st = Solver.stats () in
      let sessions0 = st.Solver.sessions_opened in
      let o1 = run 1 in
      check_bool "the -j1 run solved on row sessions" true
        (st.Solver.sessions_opened > sessions0);
      let o4 = run 4 in
      check_bool "some inconsistencies to disagree about" true (Soft.Crosscheck.count o1 > 0);
      Alcotest.(check string) "row sessions: -j4 byte-identical to -j1" (canon o1) (canon o4);
      (* chaos streams are keyed by pair, so the same seed faults the same
         pairs whatever the worker count *)
      let c1 = run ~chaos_seed:5 1 and c4 = run ~chaos_seed:5 4 in
      Alcotest.(check string) "under chaos: -j4 byte-identical to -j1" (canon c1) (canon c4);
      let p1 = run ~certify:true 1 and p4 = run ~certify:true 4 in
      Alcotest.(check string) "under certify: -j4 byte-identical to -j1" (canon p1)
        (canon p4))

(* --- the pipeline at -j N --------------------------------------------- *)

let test_compare_suite_jobs_equivalent () =
  with_clean_world (fun () ->
      let specs = [ Test_spec.packet_out (); Test_spec.stats_request () ] in
      let run jobs =
        Solver.clear_cache ();
        Soft.Pipeline.compare_suite ~max_paths:40 ~jobs Switches.Reference_switch.agent
          Switches.Modified_switch.agent specs
      in
      let seq = run 1 and par = run 4 in
      check_int "no failures either way" 0 (List.length par.Soft.Pipeline.sr_failures);
      check_int "same comparisons"
        (List.length seq.Soft.Pipeline.sr_comparisons)
        (List.length par.Soft.Pipeline.sr_comparisons);
      List.iter2
        (fun (cs : Soft.Pipeline.comparison) (cp : Soft.Pipeline.comparison) ->
          Alcotest.(check string) "same report at -j 1 and -j 4" (canon cs.Soft.Pipeline.c_outcome)
            (canon cp.Soft.Pipeline.c_outcome))
        seq.Soft.Pipeline.sr_comparisons par.Soft.Pipeline.sr_comparisons)

let test_compare_suite_failure_attribution () =
  (* rate-1.0 chaos makes both agents' runs fault; sequential never starts
     agent B, and the concurrent run must report the same single failure —
     agent A's — per test, discarding B's concurrent result *)
  with_clean_world (fun () ->
      let specs = [ Test_spec.packet_out () ] in
      let failures jobs =
        Chaos.install (Chaos.plan ~seed:2 ~rate:1.0 ());
        let s =
          Soft.Pipeline.compare_suite ~max_paths:20 ~jobs Switches.Reference_switch.agent
            Switches.Modified_switch.agent specs
        in
        Chaos.deactivate ();
        List.map (fun (f : Runner.failure) -> (f.Runner.f_agent, f.Runner.f_test))
          s.Soft.Pipeline.sr_failures
      in
      let seq = failures 1 and par = failures 4 in
      check_int "one failure per test" 1 (List.length seq);
      check_bool "concurrent failure attribution matches sequential" true (seq = par))

(* Chaos reports are byte-identical across [-j] only because every answer
   source consumes exactly the query-hook draws of the solve it stands
   for, whatever the per-domain cache warmth.  One row per source: the
   layer that must answer (its counter rises by one per query), the
   draws it may take, and the answers.

   An interval-refutable query consumes no draw, and must keep consuming
   none on every repeat: caching its Unsat would turn later occurrences
   into cache hits, which fire the hook once (the draw of the core solve
   a hit normally replaces).  The same query would then cost zero draws
   on a domain that filtered it fresh and one draw on a domain replaying
   it from cache — and cache warmth differs by worker count, which is
   exactly the dependence the chaos byte-identity gate forbids.  (Caught
   live: pairs flipping between the interval filter and the warm cache
   across [-j] shifted the keyed fault schedule.) *)
let test_interval_refutation_uncached () =
  with_clean_world (fun () ->
      let c8 n = Expr.const ~width:8 n in
      let x = Expr.var ~width:8 "par.hd.x" and y = Expr.var ~width:8 "par.hd.y" in
      let z = Expr.var ~width:8 "par.hd.z" in
      let sat_q = [ Expr.eq x (c8 3L) ] in
      (* x xor y = 0 forces x = y: Unsat, but beyond the interval domain *)
      let xor_eq = Expr.eq (Expr.logxor x y) (c8 0L) in
      let unsat_q = [ xor_eq; Expr.not_ (Expr.eq x y) ] in
      let interval_q = [ Expr.ult z (c8 5L); Expr.uge z (c8 10L) ] in
      let base = [ Expr.ult x y ] in
      let in_session extra () = Session.check (Session.create base) (base @ extra) in
      let scratch q () = Solver.check q in
      let sat = function Solver.Sat _ -> true | Solver.Unsat | Solver.Unknown _ -> false in
      let unsat = function Solver.Unsat -> true | Solver.Sat _ | Solver.Unknown _ -> false in
      let rows =
        [
          ( "constant-folded", (fun s -> s.Solver.const_hits), 0, [],
            [ (scratch [ Expr.fls ], unsat); (scratch [ Expr.tru ], sat) ] );
          ( "interval refutation, also on repeat", (fun s -> s.Solver.interval_hits), 0, [],
            [ (scratch interval_q, unsat); (scratch interval_q, unsat) ] );
          ( "fresh scratch Sat", (fun s -> s.Solver.sat_calls), 1, [],
            [ (scratch sat_q, sat) ] );
          ( "fresh scratch Unsat", (fun s -> s.Solver.sat_calls), 1, [],
            [ (scratch unsat_q, unsat) ] );
          ( "exact-cache hit", (fun s -> s.Solver.cache_hits), 1, [ sat_q ],
            [ (scratch sat_q, sat) ] );
          ( "session assumption Unsat", (fun s -> s.Solver.assumption_solves), 1, [],
            [ (in_session [ xor_eq ], unsat) ] );
          ( "session Sat, hook-suppressed confirm", (fun s -> s.Solver.assumption_solves), 1,
            [], [ (in_session sat_q, sat) ] );
        ]
      in
      let st = Solver.stats () in
      List.iter
        (fun (label, layer, draws_per_query, warm, queries) ->
          Solver.clear_cache ();
          List.iter (fun q -> ignore (Solver.check q)) warm;
          let layer0 = layer st and draws = ref 0 in
          Solver.set_query_hook (fun () -> incr draws);
          Fun.protect
            ~finally:(fun () -> Solver.set_query_hook (fun () -> ()))
            (fun () ->
              List.iter
                (fun (query, expected) ->
                  check_bool (label ^ ": answer") true (expected (query ())))
                queries);
          let n = List.length queries in
          check_int (label ^ ": answered by its layer") (layer0 + n) (layer st);
          check_int (label ^ ": query-hook draws") (draws_per_query * n) !draws)
        rows)

let suite =
  [
    ("pool returns results in task order", `Quick, test_pool_results_in_task_order);
    ("pool serializes on_result on the caller", `Quick, test_pool_on_result_serialized);
    ("pool -j1 is the sequential fast path", `Quick, test_pool_sequential_fast_path);
    ("pool joins all domains on task exception", `Quick, test_pool_exception_propagates_after_join);
    ("pool per-task Error outcomes", `Quick, test_pool_outcome_mode);
    ("pool worker hooks pair up", `Quick, test_pool_worker_hooks_pair_up);
    ("interning is shared across domains", `Quick, test_interning_shared_across_domains);
    ("solver contexts are per-domain", `Quick, test_solver_contexts_are_per_domain);
    ("config hand-off and stats merge", `Quick, test_config_handoff_and_stats_merge);
    ("-j4 report byte-identical to -j1", `Quick, test_jobs_report_identical);
    ("parallel checkpoint/resume", `Quick, test_parallel_checkpoint_resume);
    ("chaos invariant holds at -j4 (8 seeds)", `Quick, test_chaos_invariant_at_j4);
    ("row sessions: -j parity (default/chaos/certify)", `Quick, test_row_session_parity);
    ("interval refutations bypass the cache; hook draws per answer source", `Quick,
     test_interval_refutation_uncached);
    ("compare_suite equal at -j1 and -j4", `Quick, test_compare_suite_jobs_equivalent);
    ("suite failure attribution under -j4", `Quick, test_compare_suite_failure_attribution);
  ]
