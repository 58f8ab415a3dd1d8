(* The end-to-end SOFT pipeline (Figure 3): symbolically execute each agent
   on a test, group path conditions by output result, and crosscheck the
   groups through the solver.  [compare_agents] runs both phases in one
   process; the [run]/[group]/[check] pieces are also exposed separately so
   the CLI can exercise the decoupled vendor workflow of §2.4.

   [compare_suite] is the robust entry point for long runs: each agent
   execution is crash-isolated ({!Harness.Runner.execute_safe}), so one
   diverging or crashing agent run is recorded as a failure and the rest of
   the suite still completes. *)

module Runner = Harness.Runner
module Test_spec = Harness.Test_spec

type comparison = {
  c_test : Test_spec.t;
  c_run_a : Runner.run;
  c_run_b : Runner.run;
  c_grouped_a : Grouping.grouped;
  c_grouped_b : Grouping.grouped;
  c_outcome : Crosscheck.outcome;
  c_validation : Validate.summary option;
  (* present when the caller asked for replay validation; [compare_runs]
     cannot produce it (it has runs, not agents to re-execute) *)
}

let compare_runs ?split ?budget ?checkpoint ?resume ?jobs ?incremental ?supervise
    ?on_warning spec run_a run_b =
  let grouped_a = Grouping.of_run run_a in
  let grouped_b = Grouping.of_run run_b in
  let outcome =
    Crosscheck.check ?split ?budget ?checkpoint ?resume ?jobs ?incremental ?supervise
      ?on_warning grouped_a grouped_b
  in
  {
    c_test = spec;
    c_run_a = run_a;
    c_run_b = run_b;
    c_grouped_a = grouped_a;
    c_grouped_b = grouped_b;
    c_outcome = outcome;
    c_validation = None;
  }

(* Run the two agents' phase-1 executions concurrently on two domains when
   [jobs > 1]; each thunk's outcome comes back as a [result] so agent A's
   failure can win deterministically, exactly as the sequential order
   (A first, B never started after A fails) would have it. *)
let concurrent_pair ~jobs fa fb =
  if jobs <= 1 then None
  else begin
    let worker_init, worker_exit = Crosscheck.solver_pool_hooks () in
    (* the pool's per-task outcomes are exactly the Ok/Error shape wanted
       here: each agent's failure stays its own, delivered in task order *)
    let rs =
      Harness.Pool.run ~worker_init ~worker_exit ~jobs:2 (fun f -> f ()) [| fa; fb |]
    in
    Some (rs.(0), rs.(1))
  end

let reraise_or = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let compare_agents ?max_paths ?strategy ?deadline_ms ?solver_budget ?split ?(jobs = 1)
    ?incremental ?supervise ?(validate = false) agent_a agent_b
    (spec : Test_spec.t) =
  let exec agent () =
    Runner.execute ?max_paths ?strategy ?deadline_ms ?solver_budget agent spec
  in
  let run_a, run_b =
    match concurrent_pair ~jobs (exec agent_a) (exec agent_b) with
    | None ->
      let a = exec agent_a () in
      (a, exec agent_b ())
    | Some (ra, rb) ->
      (* A's exception takes precedence over B's, matching sequential order *)
      let a = reraise_or ra in
      (a, reraise_or rb)
  in
  let c =
    compare_runs ?split ?budget:solver_budget ~jobs ?incremental
      ?supervise spec run_a run_b
  in
  if not validate then c
  else
    {
      c with
      c_validation =
        Some (Validate.validate ?solver_budget agent_a agent_b spec c.c_outcome);
    }

(* Run a whole suite of tests between two agents.  Every per-agent run is
   crash-isolated: a run that raises becomes a [Runner.failure] record and
   the remaining tests still execute. *)
type suite_result = {
  sr_comparisons : comparison list;
  sr_failures : Runner.failure list;
}

let compare_suite ?max_paths ?strategy ?deadline_ms ?solver_budget ?split ?(jobs = 1)
    ?incremental ?supervise ?(validate = false) agent_a agent_b
    specs =
  let comparisons = ref [] in
  let failures = ref [] in
  List.iter
    (fun (spec : Test_spec.t) ->
      let safe agent () =
        Runner.execute_safe ?max_paths ?strategy ?deadline_ms ?solver_budget agent spec
      in
      let runs =
        match concurrent_pair ~jobs (safe agent_a) (safe agent_b) with
        | None -> (
          (* sequential: agent B does not even run once A has failed *)
          match safe agent_a () with
          | Error f -> Error f
          | Ok run_a -> (
            match safe agent_b () with Error f -> Error f | Ok run_b -> Ok (run_a, run_b)))
        | Some (ra, rb) -> (
          (* concurrent: B ran regardless, but when A failed its result is
             discarded so the recorded failure matches the sequential one *)
          match reraise_or ra with
          | Error f -> Error f
          | Ok run_a -> (
            match reraise_or rb with Error f -> Error f | Ok run_b -> Ok (run_a, run_b)))
      in
      match runs with
      | Error f -> failures := f :: !failures
      | Ok (run_a, run_b) ->
        let c =
          compare_runs ?split ?budget:solver_budget ~jobs ?incremental
            ?supervise spec run_a run_b
        in
        let c =
          if not validate then c
          else
            {
              c with
              c_validation =
                Some (Validate.validate ?solver_budget agent_a agent_b spec c.c_outcome);
            }
        in
        comparisons := c :: !comparisons)
    specs;
  { sr_comparisons = List.rev !comparisons; sr_failures = List.rev !failures }

(* Concrete reproducers for every inconsistency found in a comparison. *)
let test_cases (c : comparison) =
  List.map
    (Testcase.of_inconsistency c.c_test
       ~agent_a:c.c_outcome.Crosscheck.o_agent_a
       ~agent_b:c.c_outcome.Crosscheck.o_agent_b)
    c.c_outcome.Crosscheck.o_inconsistencies

let inconsistency_count c = Crosscheck.count c.c_outcome

let summaries c = Report.summarize c.c_outcome

let pp_comparison fmt c =
  Format.fprintf fmt "@[<v>== %s: %s vs %s ==@ " c.c_test.Test_spec.label
    c.c_outcome.Crosscheck.o_agent_a c.c_outcome.Crosscheck.o_agent_b;
  Format.fprintf fmt "%s: %d paths, %d result groups (grouping %.3fs)@ "
    c.c_outcome.o_agent_a
    (List.length c.c_run_a.Runner.run_paths)
    (Grouping.distinct_results c.c_grouped_a)
    c.c_grouped_a.Grouping.gr_group_time;
  Format.fprintf fmt "%s: %d paths, %d result groups (grouping %.3fs)@ "
    c.c_outcome.o_agent_b
    (List.length c.c_run_b.Runner.run_paths)
    (Grouping.distinct_results c.c_grouped_b)
    c.c_grouped_b.Grouping.gr_group_time;
  Format.fprintf fmt "inconsistencies: %d (checking %.2fs)@ " (inconsistency_count c)
    c.c_outcome.Crosscheck.o_check_time;
  (match Crosscheck.undecided_count c.c_outcome with
   | 0 -> ()
   | n ->
     Format.fprintf fmt
       "undecided pairs: %d (solver budget exhausted — rerun with a larger budget)@ " n);
  (match c.c_outcome.Crosscheck.o_pair_faults with
   | 0 -> ()
   | n -> Format.fprintf fmt "faulted pairs: %d (degraded to undecided)@ " n);
  (match Crosscheck.quarantined_count c.c_outcome with
   | 0 -> ()
   | n ->
     Format.fprintf fmt
       "quarantined pairs: %d (supervision struck out; a resume skips them)@ " n);
  Report.pp_summary fmt (summaries c);
  (match c.c_validation with
   | None -> ()
   | Some v -> Format.fprintf fmt "%a@ " Validate.pp v);
  Format.fprintf fmt "@]"

let pp_suite fmt s =
  List.iter (fun c -> Format.fprintf fmt "%a@ " pp_comparison c) s.sr_comparisons;
  match s.sr_failures with
  | [] -> ()
  | fs ->
    Format.fprintf fmt "@[<v>failed runs (isolated, rest of the suite completed):@ ";
    List.iter (fun f -> Format.fprintf fmt "  %a@ " Runner.pp_failure f) fs;
    Format.fprintf fmt "@]"
