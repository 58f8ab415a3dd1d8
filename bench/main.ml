(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) and runs Bechamel micro-benchmarks over the pipeline
   stages plus the design-choice ablations called out in DESIGN.md.

   Absolute numbers differ from the paper (the agents are OCaml models on
   this machine, not 55–80K LoC of C on the authors' testbed); the claims
   reproduced are the *shapes*: orderings between tests and agents, the
   grouping reduction, the 5/7 detection result, the rediscovered §5.1.2
   behaviour classes, and the concretization trade-offs.

   Environment knobs:
     SOFT_BENCH_PATHS=<n>   per-run path budget (default 4000)
     SOFT_BENCH_FULL=1      raise the budget to 100000 (long run)
     SOFT_BENCH_SKIP_MICRO=1  skip the Bechamel section
     SOFT_BENCH_JOBS=<n>    worker domains for the parallel section
                            (default: one per core)

   Machine-readable output: `--json` (or SOFT_BENCH_JSON=<path>) also
   writes the stage timings, pairs/sec, cache hit rates, and the -j N
   speedup to BENCH_crosscheck.json (or <path>) for CI trend tracking. *)

module Runner = Harness.Runner
module Spec = Harness.Test_spec
module Engine = Symexec.Engine
module Coverage = Symexec.Coverage

let budget =
  match Sys.getenv_opt "SOFT_BENCH_PATHS" with
  | Some s -> int_of_string s
  | None -> if Sys.getenv_opt "SOFT_BENCH_FULL" <> None then 100_000 else 4_000

(* --- machine-readable results ----------------------------------------- *)

type json =
  | J_int of int
  | J_num of float
  | J_str of string
  | J_obj of (string * json) list
  | J_arr of json list

let rec emit_json buf = function
  | J_int i -> Buffer.add_string buf (string_of_int i)
  | J_num f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
    else Buffer.add_string buf "null"
  | J_str s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | J_obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        emit_json buf (J_str k);
        Buffer.add_char buf ':';
        emit_json buf v)
      fields;
    Buffer.add_char buf '}'
  | J_arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit_json buf v)
      items;
    Buffer.add_char buf ']'

let json_path =
  match Sys.getenv_opt "SOFT_BENCH_JSON" with
  | Some p -> Some p
  | None ->
    if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_crosscheck.json" else None

(* --chaos-seed N selects the fault stream of the chaos-driven sections
   (default 7, the historical value); the chosen seed lands in the JSON so
   a recorded run names the stream it measured *)
let chaos_seed =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--chaos-seed" then int_of_string_opt Sys.argv.(i + 1)
    else find (i + 1)
  in
  Option.value ~default:7 (find 1)

let json_sections : (string * json) list ref = ref []

let record name j = json_sections := (name, j) :: !json_sections

let write_json () =
  match json_path with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 4096 in
    emit_json buf (J_obj (List.rev !json_sections));
    Buffer.add_char buf '\n';
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Buffer.contents buf));
    Printf.printf "wrote %s\n" path

(* Ablation control runs deliberately replay production work cold — caches
   cleared between stages, the memo switched off — to provide the
   baselines their sections report.  Banking their query traffic here and
   subtracting it from the closing solver totals keeps the suite-wide
   cache figures about the system, not the harness: a hit rate that
   counted tens of thousands of deliberately-uncached control queries
   would understate what the cache does for every production-shaped
   section.  The excluded volume is reported alongside the totals. *)
type excluded_stats = {
  mutable ex_sat : int;
  mutable ex_cache : int;
  mutable ex_interval : int;
}

let excluded = { ex_sat = 0; ex_cache = 0; ex_interval = 0 }

let ablation f =
  let s = Smt.Solver.stats () in
  let sat0 = s.Smt.Solver.sat_calls
  and cache0 = s.Smt.Solver.cache_hits
  and interval0 = s.Smt.Solver.interval_hits in
  Fun.protect
    ~finally:(fun () ->
      excluded.ex_sat <- excluded.ex_sat + (s.Smt.Solver.sat_calls - sat0);
      excluded.ex_cache <- excluded.ex_cache + (s.Smt.Solver.cache_hits - cache0);
      excluded.ex_interval <-
        excluded.ex_interval + (s.Smt.Solver.interval_hits - interval0))
    f

let solver_stats_json () =
  Smt.Solver.capture_expr_stats ();
  let s = Smt.Solver.stats () in
  let sat_calls = s.Smt.Solver.sat_calls - excluded.ex_sat in
  let cache_hits = s.Smt.Solver.cache_hits - excluded.ex_cache in
  let hit_rate =
    let looked = sat_calls + cache_hits in
    if looked = 0 then 0.0 else float_of_int cache_hits /. float_of_int looked
  in
  J_obj
    [
      ("sat_calls", J_int sat_calls);
      ("cache_hits", J_int cache_hits);
      ("cache_hit_rate", J_num hit_rate);
      ("cache_evictions", J_int s.Smt.Solver.cache_evictions);
      ("interval_hits", J_int (s.Smt.Solver.interval_hits - excluded.ex_interval));
      ("expr_nodes", J_int s.Smt.Solver.expr_nodes);
      ( "excluded_ablation_controls",
        J_obj
          [
            ("sat_calls", J_int excluded.ex_sat);
            ("cache_hits", J_int excluded.ex_cache);
            ("interval_hits", J_int excluded.ex_interval);
          ] );
    ]

let agents =
  [
    ("Reference Switch", Switches.Reference_switch.agent);
    ("Modified Switch", Switches.Modified_switch.agent);
    ("Open vSwitch", Switches.Open_vswitch.agent);
  ]

let line () = print_endline (String.make 100 '-')

let header title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

(* one shared cache of phase-1 runs: (test id, agent name) -> run *)
let run_cache : (string * string, Runner.run) Hashtbl.t = Hashtbl.create 64

(* first-pass crosscheck times from Table 3, for the regression re-run
   section to compare against *)
let first_check_time : (string, float) Hashtbl.t = Hashtbl.create 8

(* The solver cache is never cleared between production-shaped sections:
   the production pipeline ({!Soft.Pipeline.compare_agents}) executes
   every agent and the crosscheck against one warm per-domain cache, and
   a suite driver runs all tests in one process the same way.  Nearly
   identical switches re-issue nearly identical path queries, and later
   tests reuse earlier tests' verdicts — that reuse is part of the system
   under measurement.  (The bench used to clear per agent "so per-agent
   CPU times are not flattered"; that measured a cache policy no
   deployment uses.)  Sections that need cold baselines clear for
   themselves and run under {!ablation}. *)
let get_run ?(max_paths = budget) (spec : Spec.t) (name, agent) =
  let key = (spec.Spec.id, name) in
  match Hashtbl.find_opt run_cache key with
  | Some r -> r
  | None ->
    let r = Runner.execute ~max_paths agent spec in
    Hashtbl.replace run_cache key r;
    r

(* ---------------------------------------------------------------------- *)
(* Table 1: the test suite *)

let table1 () =
  header "Table 1: Tests used in the evaluation";
  Printf.printf "%-14s %s\n" "Test" "Description";
  List.iter
    (fun (t : Spec.t) -> Printf.printf "%-14s %s\n" t.Spec.label t.description)
    (Spec.all ())

(* ---------------------------------------------------------------------- *)
(* Table 2: symbolic execution statistics per test and agent *)

let table2 () =
  header
    (Printf.sprintf
       "Table 2: Symbolic execution statistics (path budget %d; time = CPU seconds;\n\
        constraint size = boolean operations, avg/max)" budget);
  Printf.printf "%-14s %5s | %32s | %32s | %32s\n" "Test" "#msgs" "Reference Switch"
    "Modified Switch" "Open vSwitch";
  Printf.printf "%-14s %5s | %8s %7s %7s %7s" "" "" "time" "paths" "avg" "max";
  Printf.printf " | %8s %7s %7s %7s" "time" "paths" "avg" "max";
  Printf.printf " | %8s %7s %7s %7s\n" "time" "paths" "avg" "max";
  let rows = ref [] in
  List.iter
    (fun (spec : Spec.t) ->
      Printf.printf "%-14s %5d" spec.Spec.label spec.message_count;
      List.iter
        (fun ((name, _) as agent) ->
          let r = get_run spec agent in
          let s = r.Runner.run_stats in
          let avg, mx = Runner.constraint_sizes r in
          Printf.printf " | %7.2fs %7d %7.1f %7d%!" s.Engine.cpu_time
            (List.length r.run_paths) avg mx;
          rows :=
            J_obj
              [
                ("test", J_str spec.Spec.id);
                ("agent", J_str name);
                ("wall_time", J_num s.Engine.wall_time);
                ("cpu_time", J_num s.Engine.cpu_time);
                ("paths", J_int s.Engine.path_count);
                ("forks", J_int s.Engine.forks);
                ("solver_sat_calls", J_int s.Engine.solver_sat_calls);
                ("solver_cache_hits", J_int s.Engine.solver_cache_hits);
              ]
            :: !rows)
        agents;
      Printf.printf "\n%!")
    (Spec.all ());
  record "phase1" (J_arr (List.rev !rows))

(* ---------------------------------------------------------------------- *)
(* Table 3: grouping and inconsistency checking (Reference vs Open vSwitch) *)

(* FlowMod is excluded, as in the paper's Table 3 (its intersection stage
   is the >28h outlier there). *)
let table3_tests () =
  [
    Spec.packet_out (); Spec.stats_request (); Spec.set_config (); Spec.eth_flow_mod ();
    Spec.cs_flow_mods (); Spec.short_symb ();
  ]

let table3 () =
  header
    "Table 3: Grouping time / #distinct results (Reference, OVS) and inconsistency checking";
  Printf.printf "%-14s | %18s | %18s | %18s\n" "Test" "Reference grouping" "OVS grouping"
    "Inconsist. checking";
  Printf.printf "%-14s | %10s %7s | %10s %7s | %10s %7s\n" "" "time" "#res" "time" "#res"
    "time" "#found";
  let rows = ref [] in
  List.iter
    (fun (spec : Spec.t) ->
      let ra = get_run spec (List.nth agents 0) in
      let rb = get_run spec (List.nth agents 2) in
      let ga = Soft.Grouping.of_run ra in
      let gb = Soft.Grouping.of_run rb in
      let outcome = Soft.Crosscheck.check ga gb in
      let check_time = outcome.Soft.Crosscheck.o_check_time in
      Hashtbl.replace first_check_time spec.Spec.id check_time;
      let pairs = outcome.Soft.Crosscheck.o_pairs_checked in
      rows :=
        J_obj
          [
            ("test", J_str spec.Spec.id);
            ("group_time_a", J_num ga.Soft.Grouping.gr_group_time);
            ("group_time_b", J_num gb.Soft.Grouping.gr_group_time);
            ("check_time", J_num check_time);
            ("pairs_checked", J_int pairs);
            ( "pairs_per_sec",
              J_num (if check_time > 0.0 then float_of_int pairs /. check_time else 0.0) );
            ("inconsistencies", J_int (Soft.Crosscheck.count outcome));
            ("undecided", J_int (Soft.Crosscheck.undecided_count outcome));
          ]
        :: !rows;
      Printf.printf "%-14s | %9.3fs %7d | %9.3fs %7d | %9.2fs %7d\n%!" spec.Spec.label
        ga.Soft.Grouping.gr_group_time
        (Soft.Grouping.distinct_results ga)
        gb.Soft.Grouping.gr_group_time
        (Soft.Grouping.distinct_results gb)
        check_time (Soft.Crosscheck.count outcome))
    (table3_tests ());
  record "stages" (J_arr (List.rev !rows))

(* ---------------------------------------------------------------------- *)
(* Table 4: instruction and branch coverage *)

let no_message_spec =
  {
    Spec.id = "no_message";
    label = "No Message";
    description = "connection setup only";
    message_count = 0;
    inputs = [];
  }

let table4 () =
  header "Table 4: Instruction and branch coverage per test (percent)";
  Printf.printf "%-14s | %19s | %19s\n" "Test" "Reference Switch" "Open vSwitch";
  Printf.printf "%-14s | %9s %9s | %9s %9s\n" "" "Inst.(%)" "Branch(%)" "Inst.(%)" "Branch(%)";
  let tests = no_message_spec :: Spec.all () in
  let cumulative = Hashtbl.create 4 in
  List.iter
    (fun (spec : Spec.t) ->
      Printf.printf "%-14s" spec.Spec.label;
      List.iter
        (fun ((name, _) as agent) ->
          let r = get_run spec agent in
          let rep = Runner.coverage_report r in
          (let prev =
             match Hashtbl.find_opt cumulative name with
             | Some s -> s
             | None -> Coverage.empty_set ()
           in
           Hashtbl.replace cumulative name (Coverage.union prev r.Runner.run_coverage));
          Printf.printf " | %8.2f%% %8.2f%%" (Coverage.instr_pct rep) (Coverage.branch_pct rep))
        [ List.nth agents 0; List.nth agents 2 ];
      Printf.printf "\n%!")
    tests;
  Printf.printf "%-14s" "Cumulative";
  List.iter
    (fun (name, _) ->
      let set = try Hashtbl.find cumulative name with Not_found -> Coverage.empty_set () in
      let rep = Coverage.report (if name = "Reference Switch" then "reference" else "ovs") set in
      Printf.printf " | %8.2f%% %8.2f%%" (Coverage.instr_pct rep) (Coverage.branch_pct rep))
    [ List.nth agents 0; List.nth agents 2 ];
  Printf.printf "\n";
  Printf.printf
    "(the remaining cumulative gap is code unreachable through the control channel:\n\
    \ timer-driven expiry, async port events, teardown — the paper's ~75%% observation)\n"

(* ---------------------------------------------------------------------- *)
(* Table 5: effects of concretizing inputs *)

let table5 () =
  header "Table 5: Effects of concretizing on execution time, paths and instruction coverage";
  Printf.printf "%-18s %10s %8s %10s\n" "Test" "Time" "Paths" "Coverage";
  let reference = List.nth agents 0 in
  let row label (spec : Spec.t) =
    let r = get_run spec reference in
    let rep = Runner.coverage_report r in
    Printf.printf "%-18s %9.2fs %8d %9.2f%%\n%!" label r.Runner.run_stats.Engine.cpu_time
      (List.length r.run_paths) (Coverage.instr_pct rep)
  in
  row "Fully Symbolic" (Spec.fully_symbolic ());
  row "Concrete Match" (Spec.concrete_match ());
  row "Concrete Action" (Spec.concrete_action ());
  row "Concrete Probe" (Spec.probe_ablation ~symbolic_probe:false ());
  row "Symbolic Probe" (Spec.probe_ablation ~symbolic_probe:true ())

(* ---------------------------------------------------------------------- *)
(* Figure 4: coverage as a function of the number of symbolic messages *)

let figure4 () =
  header "Figure 4: Reference switch code coverage vs number of symbolic messages";
  Printf.printf "%-10s %10s %10s %8s %9s\n" "#messages" "Inst.(%)" "Branch(%)" "paths" "time";
  List.iter
    (fun n ->
      let spec = Spec.figure4_sequence ~messages:n () in
      let r = get_run spec (List.nth agents 0) in
      let rep = Runner.coverage_report r in
      Printf.printf "%-10d %9.2f%% %9.2f%% %8d %8.2fs\n%!" n (Coverage.instr_pct rep)
        (Coverage.branch_pct rep)
        (List.length r.Runner.run_paths)
        r.run_stats.Engine.cpu_time)
    [ 1; 2; 3 ]

(* ---------------------------------------------------------------------- *)
(* Section 5.1.1: Modified Switch vs Reference Switch (5/7 detection) *)

let section_5_1_1 () =
  header "Section 5.1.1: Modified Switch vs Reference Switch (injected differences)";
  let tests = [ Spec.packet_out (); Spec.stats_request (); Spec.set_config (); Spec.cs_flow_mods () ] in
  let detected = Hashtbl.create 8 in
  List.iter
    (fun (spec : Spec.t) ->
      let ra = get_run spec (List.nth agents 0) in
      let rb = get_run spec (List.nth agents 1) in
      let outcome = Soft.Crosscheck.check (Soft.Grouping.of_run ra) (Soft.Grouping.of_run rb) in
      Printf.printf "%-14s %4d inconsistencies\n%!" spec.Spec.label
        (Soft.Crosscheck.count outcome);
      List.iter
        (fun (inc : Soft.Crosscheck.inconsistency) ->
          match
            Switches.Modified_switch.attribute_inconsistency ~test:spec.Spec.id
              ~key_a:(Openflow.Trace.result_key inc.Soft.Crosscheck.i_result_a)
              ~key_b:(Openflow.Trace.result_key inc.i_result_b)
          with
          | Some m -> Hashtbl.replace detected m ()
          | None -> ())
        outcome.Soft.Crosscheck.o_inconsistencies)
    tests;
  let found = ref 0 in
  List.iter
    (fun (m : Switches.Modified_switch.injected) ->
      let hit = Hashtbl.mem detected m.Switches.Modified_switch.inj_id in
      if hit then incr found;
      Printf.printf "  %s %s: %s\n"
        (if hit then "[FOUND] " else "[MISSED]")
        m.inj_id m.inj_description)
    Switches.Modified_switch.injected_modifications;
  Printf.printf "=> SOFT pinpointed %d of 7 injected modifications (paper: 5 of 7)\n" !found

(* ---------------------------------------------------------------------- *)
(* Section 5.1.2: Reference vs Open vSwitch behaviour classes *)

let section_5_1_2 () =
  header "Section 5.1.2: Open vSwitch vs Reference Switch (root-cause classes)";
  let tests =
    [ Spec.packet_out (); Spec.stats_request (); Spec.eth_flow_mod (); Spec.short_symb () ]
  in
  let class_table : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (spec : Spec.t) ->
      let ra = get_run spec (List.nth agents 0) in
      let rb = get_run spec (List.nth agents 2) in
      let outcome = Soft.Crosscheck.check (Soft.Grouping.of_run ra) (Soft.Grouping.of_run rb) in
      Printf.printf "%-14s %4d inconsistencies, %d root-cause classes\n%!" spec.Spec.label
        (Soft.Crosscheck.count outcome)
        (List.length (Soft.Report.summarize outcome));
      List.iter
        (fun (s : Soft.Report.summary) ->
          let name = Soft.Report.class_name s.Soft.Report.s_class in
          Hashtbl.replace class_table name
            (s.s_count + try Hashtbl.find class_table name with Not_found -> 0))
        (Soft.Report.summarize outcome))
    tests;
  Printf.printf "\nfindings across tests (cf. the paper's narrative):\n";
  Hashtbl.iter (fun name count -> Printf.printf "  %4d x %s\n" count name) class_table;
  print_newline ();
  Printf.printf "expected classes present:\n";
  let have name = Hashtbl.mem class_table name in
  List.iter
    (fun cls ->
      Printf.printf "  [%s] %s\n" (if have (Soft.Report.class_name cls) then "x" else " ")
        (Soft.Report.class_name cls))
    Soft.Report.
      [ Agent_crash; Missing_error; Different_errors; Rejected_vs_applied;
        Forwarding_difference ]

(* ---------------------------------------------------------------------- *)
(* Design-choice ablations (DESIGN.md §5) *)

(* ---------------------------------------------------------------------- *)
(* Regression re-run: the deployment SOFT is built for is a standing
   interoperability suite re-executed whenever a switch changes.  In the
   same process, re-run every Table 3 comparison from scratch — symbolic
   execution, grouping, crosscheck, no run memo — against the cache the
   first pass left warm.  Every query a patch did not change is served
   from the memo; the re-run pays only for what moved. *)

let regression_rerun () =
  header
    "Regression re-run: full Table 3 suite again in the same process (warm cache,\n\
     as a standing interoperability suite re-runs after a switch patch)";
  let st = Smt.Solver.stats () in
  let sat0 = st.Smt.Solver.sat_calls
  and cache0 = st.Smt.Solver.cache_hits in
  Printf.printf "%-14s %6s | %10s %10s | %s\n" "Test" "pairs" "t(first)" "t(rerun)"
    "speedup";
  let rows = ref [] in
  let total_pairs = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (spec : Spec.t) ->
      let ra = Runner.execute ~max_paths:budget (snd (List.nth agents 0)) spec in
      let rb = Runner.execute ~max_paths:budget (snd (List.nth agents 2)) spec in
      let o =
        Soft.Crosscheck.check (Soft.Grouping.of_run ra) (Soft.Grouping.of_run rb)
      in
      let pairs = o.Soft.Crosscheck.o_pairs_checked in
      let rerun = o.Soft.Crosscheck.o_check_time in
      let first =
        match Hashtbl.find_opt first_check_time spec.Spec.id with
        | Some t -> t
        | None -> 0.0
      in
      let speedup = if rerun > 0.0 then first /. rerun else 0.0 in
      total_pairs := !total_pairs + pairs;
      Printf.printf "%-14s %6d | %9.3fs %9.3fs | %6.1fx\n%!" spec.Spec.label pairs first
        rerun speedup;
      rows :=
        J_obj
          [
            ("test", J_str spec.Spec.id);
            ("pairs_checked", J_int pairs);
            ("first_check_time", J_num first);
            ("rerun_check_time", J_num rerun);
            ("speedup", J_num speedup);
          ]
        :: !rows)
    (table3_tests ());
  let wall = Unix.gettimeofday () -. t0 in
  let sat = st.Smt.Solver.sat_calls - sat0 in
  let cache = st.Smt.Solver.cache_hits - cache0 in
  let hit_rate =
    let looked = sat + cache in
    if looked = 0 then 0.0 else float_of_int cache /. float_of_int looked
  in
  Printf.printf
    "re-run end to end (incl. symbolic execution): %.2fs — %d cache hits, %d SAT \
     calls (hit rate %.3f)\n"
    wall cache sat hit_rate;
  record "regression"
    (J_obj
       [
         ("tests", J_arr (List.rev !rows));
         ("pairs_checked", J_int !total_pairs);
         ("rerun_wall_time", J_num wall);
         ("sat_calls", J_int sat);
         ("cache_hits", J_int cache);
         ("cache_hit_rate", J_num hit_rate);
       ])

(* ---------------------------------------------------------------------- *)

let ablation_interval_filter () =
  header "Ablation: interval pre-filter on/off (symbolic execution of Packet Out, reference)";
  let spec = Spec.packet_out () in
  let time use_interval =
    Smt.Solver.clear_cache ();
    let t0 = Sys.time () in
    let r = Runner.execute ~max_paths:600 ~use_interval Switches.Reference_switch.agent spec in
    (Sys.time () -. t0, List.length r.Runner.run_paths)
  in
  let t_on, p_on = time true in
  let t_off, p_off = time false in
  Printf.printf "with interval filter:    %6.2fs (%d paths)\n" t_on p_on;
  Printf.printf "without interval filter: %6.2fs (%d paths)\n" t_off p_off;
  assert (p_on = p_off)

let ablation_balanced_disjunction () =
  header "Ablation: balanced vs linear or-trees in grouped conditions (solver time)";
  let spec = Spec.packet_out () in
  let run = get_run spec (List.nth agents 0) in
  let conds = List.map (fun (p : Runner.path_record) -> p.Runner.pr_cond) run.run_paths in
  let some_other = match conds with c :: _ -> Smt.Expr.not_ c | [] -> Smt.Expr.tru in
  let time build =
    let cond = build conds in
    Smt.Solver.clear_cache ();
    let t0 = Sys.time () in
    ignore (Smt.Solver.check ~use_cache:false [ cond; some_other ]);
    Sys.time () -. t0
  in
  let balanced = time Smt.Expr.balanced_disj in
  let linear = time (fun cs -> List.fold_left Smt.Expr.or_ Smt.Expr.fls cs) in
  Printf.printf "balanced or-tree: %6.3fs    linear or-chain: %6.3fs  (%d disjuncts)\n"
    balanced linear (List.length conds)

let ablation_group_splitting () =
  header "Ablation: monolithic vs chunked group intersection (future-work remedy)";
  (* the smaller CS FlowMods keeps this ablation cheap; the outcome is the
     same on every test: identical findings, and with this solver the
     monolithic or-tree is the faster side — chunking only pays off when
     the single query diverges, as the paper's STP did *)
  let spec = Spec.cs_flow_mods () in
  let a = Soft.Grouping.of_run (get_run spec (List.nth agents 0)) in
  let b = Soft.Grouping.of_run (get_run spec (List.nth agents 2)) in
  let time split =
    Smt.Solver.clear_cache ();
    let outcome = Soft.Crosscheck.check ?split a b in
    (outcome.Soft.Crosscheck.o_check_time, Soft.Crosscheck.count outcome)
  in
  let t_whole, n_whole = time None in
  let t_split, n_split = time (Some 4) in
  Printf.printf "monolithic disjunctions: %6.2fs (%d found)\n" t_whole n_whole;
  Printf.printf "chunks of <= 4 paths:    %6.2fs (%d found)\n" t_split n_split;
  assert (n_whole = n_split)

let ablation_structured_inputs () =
  header "Ablation: structured vs raw symbolic inputs (paths per covered instruction)";
  let reference = List.nth agents 0 in
  let structured = get_run (Spec.packet_out ()) reference in
  let raw = get_run (Spec.short_symb ()) reference in
  let ratio (r : Runner.run) =
    let rep = Runner.coverage_report r in
    (List.length r.Runner.run_paths, rep.Coverage.instr_covered)
  in
  let sp, sc = ratio structured and rp, rc = ratio raw in
  Printf.printf "structured (Packet Out): %5d paths covering %d instructions\n" sp sc;
  Printf.printf "raw 10-byte (Short Symb): %4d paths covering %d instructions\n" rp rc;
  Printf.printf
    "(raw bytes spend their paths on framing errors; structured inputs reach deep handlers)\n"

(* ---------------------------------------------------------------------- *)
(* Parallel crosscheck: the work-stealing pool at -j 1 vs -j N *)

let parallel_jobs =
  match Sys.getenv_opt "SOFT_BENCH_JOBS" with
  | Some s -> max 2 (int_of_string s)
  | None -> max 2 (Harness.Pool.default_jobs ())

let parallel_crosscheck () =
  header
    (Printf.sprintf
       "Parallel crosscheck: -j 1 vs -j %d (work-stealing pool; %d core(s) available)"
       parallel_jobs
       (Harness.Pool.default_jobs ()));
  if Harness.Pool.default_jobs () < parallel_jobs then begin
    (* Oversubscribed: -jN domains time-slicing fewer cores measures the
       scheduler, not the pool — a "0.34x speedup" here is noise.  Measure
       what this machine *can* answer instead: the pool's own overhead,
       i.e. the same -j1 workload run sequentially vs forced through a
       single pool worker domain (spawn, hand-off, result marshalling). *)
    Printf.printf
      "skipped: %d job(s) requested but only %d core(s) available — an \
       oversubscribed measurement would report scheduler noise as pool slowdown\n"
      parallel_jobs
      (Harness.Pool.default_jobs ());
    let spec = Spec.cs_flow_mods () in
    let a = Soft.Grouping.of_run (get_run spec (List.nth agents 0)) in
    let b = Soft.Grouping.of_run (get_run spec (List.nth agents 2)) in
    let measure ~force_pool =
      Smt.Solver.clear_cache ();
      let o = Soft.Crosscheck.check ~jobs:1 ~force_pool a b in
      (o.Soft.Crosscheck.o_check_time, Soft.Crosscheck.count o)
    in
    let t_seq, n_seq = measure ~force_pool:false in
    let t_pool, n_pool = measure ~force_pool:true in
    assert (n_seq = n_pool);
    let overhead = if t_seq > 0.0 then (t_pool -. t_seq) /. t_seq else 0.0 in
    Printf.printf
      "pool overhead at -j1 (%s): %.3fs sequential, %.3fs via one pool worker => %+.1f%%\n"
      spec.Spec.label t_seq t_pool (100.0 *. overhead);
    record "parallel"
      (J_obj
         [
           ("status", J_str "skipped_insufficient_cores");
           ("cores_available", J_int (Harness.Pool.default_jobs ()));
           ("jobs", J_int parallel_jobs);
           ("pool_overhead_test", J_str spec.Spec.id);
           ("pool_overhead_seq_time", J_num t_seq);
           ("pool_overhead_pool_time", J_num t_pool);
           ("pool_overhead_frac", J_num overhead);
         ])
  end
  else begin
  Printf.printf "%-14s %7s | %9s %9s | %9s %9s | %7s\n" "Test" "pairs" "t(-j1)" "pairs/s"
    (Printf.sprintf "t(-j%d)" parallel_jobs)
    "pairs/s" "speedup";
  let tests = [ Spec.eth_flow_mod (); Spec.cs_flow_mods (); Spec.short_symb () ] in
  let rows = ref [] in
  let total_seq = ref 0.0 and total_par = ref 0.0 in
  List.iter
    (fun (spec : Spec.t) ->
      let a = Soft.Grouping.of_run (get_run spec (List.nth agents 0)) in
      let b = Soft.Grouping.of_run (get_run spec (List.nth agents 2)) in
      let measure jobs =
        (* cold caches on both sides: workers start with fresh per-domain
           contexts, so clear the caller's memo cache too for a fair -j 1 *)
        Smt.Solver.clear_cache ();
        Soft.Crosscheck.check ~jobs a b
      in
      let o1 = measure 1 in
      let on = measure parallel_jobs in
      (* the report must not depend on the worker count *)
      assert (Soft.Crosscheck.count o1 = Soft.Crosscheck.count on);
      assert (o1.Soft.Crosscheck.o_pairs_undecided = on.Soft.Crosscheck.o_pairs_undecided);
      let t1 = o1.Soft.Crosscheck.o_check_time in
      let tn = on.Soft.Crosscheck.o_check_time in
      total_seq := !total_seq +. t1;
      total_par := !total_par +. tn;
      let pairs = o1.Soft.Crosscheck.o_pairs_checked in
      let rate t = if t > 0.0 then float_of_int pairs /. t else 0.0 in
      let speedup = if tn > 0.0 then t1 /. tn else 0.0 in
      rows :=
        J_obj
          [
            ("test", J_str spec.Spec.id);
            ("pairs_checked", J_int pairs);
            ("seq_time", J_num t1);
            ("seq_pairs_per_sec", J_num (rate t1));
            ("par_time", J_num tn);
            ("par_pairs_per_sec", J_num (rate tn));
            ("speedup", J_num speedup);
          ]
        :: !rows;
      Printf.printf "%-14s %7d | %8.3fs %9.0f | %8.3fs %9.0f | %6.2fx\n%!" spec.Spec.label
        pairs t1 (rate t1) tn (rate tn) speedup)
    tests;
  let overall = if !total_par > 0.0 then !total_seq /. !total_par else 0.0 in
  Printf.printf "overall: %.3fs at -j1, %.3fs at -j%d => %.2fx\n" !total_seq !total_par
    parallel_jobs overall;
  if Harness.Pool.default_jobs () = 1 then
    Printf.printf
      "(single-core machine: the pool pays domain overhead with no parallel gain here)\n";
  record "parallel"
    (J_obj
       [
         ("status", J_str "measured");
         ("cores_available", J_int (Harness.Pool.default_jobs ()));
         ("jobs", J_int parallel_jobs);
         ("seq_time", J_num !total_seq);
         ("par_time", J_num !total_par);
         ("speedup", J_num overall);
         ("tests", J_arr (List.rev !rows));
       ])
  end

(* ---------------------------------------------------------------------- *)
(* Incremental crosscheck: scratch per-pair solving vs template rows *)

let incremental_crosscheck () =
  header
    "Incremental crosscheck: per-pair scratch instances vs template rows \
     (B side blasted once, learnt-clause reuse within a row)";
  Printf.printf "%-14s %7s | %9s %9s | %9s %9s | %7s | %6s %8s\n" "Test" "pairs"
    "t(scratch)" "pairs/s" "t(incr)" "pairs/s" "speedup" "reuse" "learnt";
  let tests = [ Spec.eth_flow_mod (); Spec.cs_flow_mods (); Spec.short_symb () ] in
  (* the exact reported facts, minus timing: the modes must agree on these
     byte for byte (the property test covers randomized matrices; this is
     the same assertion on the real suite) *)
  let facts (o : Soft.Crosscheck.outcome) =
    ( List.map
        (fun (inc : Soft.Crosscheck.inconsistency) ->
          ( Openflow.Trace.result_key inc.Soft.Crosscheck.i_result_a,
            Openflow.Trace.result_key inc.i_result_b,
            List.map
              (fun (v, value) -> (Smt.Expr.var_name v, Smt.Expr.var_width v, value))
              (Smt.Model.bindings inc.i_witness) ))
        o.Soft.Crosscheck.o_inconsistencies,
      o.o_pairs_undecided )
  in
  let rows = ref [] in
  let total_scratch = ref 0.0 and total_incr = ref 0.0 in
  let st = Smt.Solver.stats () in
  let sessions0 = st.Smt.Solver.sessions_opened in
  let assumes0 = st.Smt.Solver.assumption_solves in
  let fallbacks0 = st.Smt.Solver.scratch_fallbacks in
  let learnt0 = st.Smt.Solver.learnt_retained in
  List.iter
    (fun (spec : Spec.t) ->
      let a = Soft.Grouping.of_run (get_run spec (List.nth agents 0)) in
      let b = Soft.Grouping.of_run (get_run spec (List.nth agents 2)) in
      let measure incremental =
        (* cold memo cache on both sides: the amortization under test is
           the template and row reuse, not warm whole-query memo hits *)
        Smt.Solver.clear_cache ();
        Soft.Crosscheck.check ~jobs:1 ~incremental a b
      in
      let learnt_before = st.Smt.Solver.learnt_retained in
      let assumes_before = st.Smt.Solver.assumption_solves in
      let sessions_before = st.Smt.Solver.sessions_opened in
      let o_scratch = measure false in
      let o_incr = measure true in
      assert (facts o_scratch = facts o_incr);
      let ts = o_scratch.Soft.Crosscheck.o_check_time in
      let ti = o_incr.Soft.Crosscheck.o_check_time in
      total_scratch := !total_scratch +. ts;
      total_incr := !total_incr +. ti;
      let pairs = o_scratch.Soft.Crosscheck.o_pairs_checked in
      let rate t = if t > 0.0 then float_of_int pairs /. t else 0.0 in
      let speedup = if ti > 0.0 then ts /. ti else 0.0 in
      let learnt = st.Smt.Solver.learnt_retained - learnt_before in
      let assumes = st.Smt.Solver.assumption_solves - assumes_before in
      let sessions = st.Smt.Solver.sessions_opened - sessions_before in
      (* fraction of row solves that rode on an already-blasted template
         (each template's blast is charged to its first solve) *)
      let reuse =
        if assumes > 0 then float_of_int (assumes - sessions) /. float_of_int assumes
        else 0.0
      in
      rows :=
        J_obj
          [
            ("test", J_str spec.Spec.id);
            ("pairs_checked", J_int pairs);
            ("scratch_time", J_num ts);
            ("scratch_pairs_per_sec", J_num (rate ts));
            ("incremental_time", J_num ti);
            ("incremental_pairs_per_sec", J_num (rate ti));
            ("incremental_speedup", J_num speedup);
            ("sessions", J_int sessions);
            ("assumption_solves", J_int assumes);
            ("blast_reuse_rate", J_num reuse);
            ("learnt_retained", J_int learnt);
          ]
        :: !rows;
      Printf.printf "%-14s %7d | %8.3fs %9.0f | %8.3fs %9.0f | %6.2fx | %5.0f%% %8d\n%!"
        spec.Spec.label pairs ts (rate ts) ti (rate ti) speedup (100.0 *. reuse) learnt)
    tests;
  let overall = if !total_incr > 0.0 then !total_scratch /. !total_incr else 0.0 in
  let sessions = st.Smt.Solver.sessions_opened - sessions0 in
  let assumes = st.Smt.Solver.assumption_solves - assumes0 in
  let fallbacks = st.Smt.Solver.scratch_fallbacks - fallbacks0 in
  let learnt = st.Smt.Solver.learnt_retained - learnt0 in
  let reuse =
    if assumes > 0 then float_of_int (assumes - sessions) /. float_of_int assumes else 0.0
  in
  Printf.printf
    "overall: %.3fs scratch, %.3fs incremental => %.2fx (%d sessions, %d assumption \
     solves, %d scratch fallbacks, %d learnt clauses retained)\n"
    !total_scratch !total_incr overall sessions assumes fallbacks learnt;
  record "incremental"
    (J_obj
       [
         ("scratch_time", J_num !total_scratch);
         ("incremental_time", J_num !total_incr);
         ("incremental_speedup", J_num overall);
         ("sessions", J_int sessions);
         ("assumption_solves", J_int assumes);
         ("scratch_fallbacks", J_int fallbacks);
         ("blast_reuse_rate", J_num reuse);
         ("learnt_retained", J_int learnt);
         ("tests", J_arr (List.rev !rows));
       ])

(* ---------------------------------------------------------------------- *)
(* Supervised crosscheck: watchdog kills + quarantine accounting under a
   chaos hang schedule *)

let supervised_crosscheck () =
  header
    "Supervised crosscheck: watchdog deadline + chaos hangs (retry/quarantine accounting)";
  let spec = Spec.cs_flow_mods () in
  let a = Soft.Grouping.of_run (get_run spec (List.nth agents 0)) in
  let b = Soft.Grouping.of_run (get_run spec (List.nth agents 2)) in
  (* clean baseline: supervision enabled but nothing tripping — this is the
     common production configuration and must not perturb the report *)
  Smt.Solver.clear_cache ();
  let clean = Soft.Crosscheck.check ~jobs:1 a b in
  let pol =
    Harness.Supervise.policy ~deadline_ms:250 ~max_retries:1 ~backoff_ms:[ 1 ] ()
  in
  Smt.Solver.clear_cache ();
  let calm = Soft.Crosscheck.check ~jobs:1 ~supervise:pol a b in
  assert (Soft.Crosscheck.count calm = Soft.Crosscheck.count clean);
  assert (Soft.Crosscheck.quarantined_count calm = 0);
  (* stormy run: hangs + solver faults injected; the watchdog kills each
     hang at the deadline, the ladder retries, strikes-out pairs quarantine *)
  let seed = chaos_seed and rate = 0.08 in
  Harness.Chaos.install (Harness.Chaos.plan ~seed ~rate ());
  Smt.Solver.clear_cache ();
  let solver_time_before = (Smt.Solver.stats ()).Smt.Solver.solver_time in
  let t0 = Unix.gettimeofday () in
  let warnings = ref 0 in
  let o =
    Soft.Crosscheck.check ~jobs:1 ~supervise:pol ~on_warning:(fun _ -> incr warnings) a b
  in
  let wall = Unix.gettimeofday () -. t0 in
  Harness.Chaos.deactivate ();
  Smt.Mono.reset_skew ();
  (* each injected clock jump advanced the monotonic clock a day, which the
     solver-time gauge absorbed; clamp the section's contribution back to
     its real wall time so the bench's closing totals stay meaningful *)
  (Smt.Solver.stats ()).Smt.Solver.solver_time <- solver_time_before +. wall;
  let tax t =
    List.length
      (List.filter (fun (_, _, tx) -> tx = t) o.Soft.Crosscheck.o_pairs_quarantined)
  in
  let quarantined = Soft.Crosscheck.quarantined_count o in
  Printf.printf
    "pairs: %d checked, %d inconsistencies (clean run: %d), %d undecided\n"
    o.Soft.Crosscheck.o_pairs_checked (Soft.Crosscheck.count o)
    (Soft.Crosscheck.count clean)
    (Soft.Crosscheck.undecided_count o);
  Printf.printf
    "supervision: %d retries, %d quarantined (hung %d / crashed %d / oom %d / faulted \
     %d) in %.2fs wall\n"
    o.Soft.Crosscheck.o_retries quarantined
    (tax Harness.Supervise.Hung) (tax Harness.Supervise.Crashed)
    (tax Harness.Supervise.Oom) (tax Harness.Supervise.Faulted)
    wall;
  record "supervision"
    (J_obj
       [
         ("chaos_seed", J_int seed);
         ("chaos_rate", J_num rate);
         ("deadline_ms", J_int 250);
         ("max_retries", J_int 1);
         ("pairs_checked", J_int o.Soft.Crosscheck.o_pairs_checked);
         ("inconsistencies", J_int (Soft.Crosscheck.count o));
         ("undecided", J_int (Soft.Crosscheck.undecided_count o));
         ("retries", J_int o.Soft.Crosscheck.o_retries);
         ("quarantined", J_int quarantined);
         ("quarantined_hung", J_int (tax Harness.Supervise.Hung));
         ("quarantined_crashed", J_int (tax Harness.Supervise.Crashed));
         ("quarantined_oom", J_int (tax Harness.Supervise.Oom));
         ("quarantined_faulted", J_int (tax Harness.Supervise.Faulted));
         ("warnings", J_int !warnings);
         ("wall_time", J_num wall);
       ])

(* ---------------------------------------------------------------------- *)
(* Fault-schedule exploration: how many draw sites a crosscheck exposes,
   systematic schedule throughput, and the cost of ddmin shrinking *)

let exploration_bench () =
  header
    "Fault-schedule exploration: site discovery, schedule throughput, ddmin shrink cost";
  Smt.Solver.clear_cache ();
  let w =
    Soft.Oracle.crosscheck_workload ~max_paths:budget
      ~a:Switches.Reference_switch.agent ~b:Switches.Modified_switch.agent
      (Spec.packet_out ())
  in
  (* single-fault pass, capped at 32 schedules: the throughput number is
     the point here, not coverage (CI runs the uncapped exhaustive pass on
     cs_flow_mods), and each packet_out schedule takes seconds *)
  let max_schedules = 32 in
  let t0 = Unix.gettimeofday () in
  let out = Harness.Explore.explore ~max_schedules ~faults_per_schedule:1 ~shrink:false w in
  let single_wall = Unix.gettimeofday () -. t0 in
  let s = out.Harness.Explore.o_stats in
  Printf.printf
    "packet_out: %d draw site(s); single-fault pass: %d schedule(s) (cap %d) in %.2fs \
     (%.1f/s), %d violation(s)\n"
    s.Harness.Explore.x_sites s.x_schedules max_schedules single_wall
    (float_of_int s.x_schedules /. Float.max 1e-9 single_wall)
    s.x_violations;
  (* shrink cost, measured on the synthetic workload's known violation:
     ddmin from every site armed down to the two-site minimum *)
  let sw = Soft.Oracle.synthetic_pair_workload () in
  let baseline, sites = Harness.Explore.discover sw in
  let fat = Harness.Schedule.make sites in
  let t1 = Unix.gettimeofday () in
  let shrink_tests =
    match Harness.Explore.shrink sw ~baseline fat with
    | Some (minimal, tests) ->
      Printf.printf
        "synthetic shrink: %d site(s) -> %d in %d workload run(s) (%.2fms)\n"
        (List.length sites)
        (Harness.Schedule.cardinal minimal)
        tests
        ((Unix.gettimeofday () -. t1) *. 1000.0);
      tests
    | None ->
      Printf.printf "synthetic shrink: violation not reproduced\n";
      0
  in
  record "exploration"
    (J_obj
       [
         ("workload", J_str "packet_out");
         ("sites", J_int s.Harness.Explore.x_sites);
         ("schedules", J_int s.x_schedules);
         ("max_schedules", J_int max_schedules);
         ("violations", J_int s.x_violations);
         ("single_fault_wall_s", J_num single_wall);
         ( "schedules_per_sec",
           J_num (float_of_int s.x_schedules /. Float.max 1e-9 single_wall) );
         ("shrink_tests", J_int shrink_tests);
       ])

(* ---------------------------------------------------------------------- *)
(* ---------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks of the pipeline stages *)

let microbenchmarks () =
  header "Bechamel micro-benchmarks (ns per run, OLS estimate)";
  let open Bechamel in
  let spec = Spec.packet_out () in
  let run_ref = get_run spec (List.nth agents 0) in
  let run_ovs = get_run spec (List.nth agents 2) in
  let paths =
    List.map
      (fun (p : Runner.path_record) -> (p.Runner.pr_result, p.Runner.pr_cond))
      run_ref.Runner.run_paths
  in
  let grouped_ref = Soft.Grouping.of_run run_ref in
  let grouped_ovs = Soft.Grouping.of_run run_ovs in
  let ga = List.hd grouped_ref.Soft.Grouping.gr_groups in
  let gb =
    List.find
      (fun g -> g.Soft.Grouping.g_key <> ga.Soft.Grouping.g_key)
      grouped_ovs.Soft.Grouping.gr_groups
  in
  let x = Smt.Expr.var ~width:16 "bench.x" in
  let small_query =
    [
      Smt.Expr.ult x (Smt.Expr.const ~width:16 25L);
      Smt.Expr.eq
        (Smt.Expr.logand x (Smt.Expr.const ~width:16 0xfL))
        (Smt.Expr.const ~width:16 5L);
    ]
  in
  let tests =
    [
      Test.make ~name:"table2.symexec_packet_out_50paths"
        (Staged.stage (fun () ->
             ignore (Runner.execute ~max_paths:50 Switches.Reference_switch.agent spec)));
      Test.make ~name:"table3.grouping_packet_out"
        (Staged.stage (fun () -> ignore (Soft.Grouping.group_paths paths)));
      Test.make ~name:"table3.crosscheck_one_pair"
        (Staged.stage (fun () ->
             ignore
               (Smt.Solver.check ~use_cache:false
                  [ ga.Soft.Grouping.g_cond; gb.Soft.Grouping.g_cond ])));
      Test.make ~name:"solver.small_bitvector_query"
        (Staged.stage (fun () -> ignore (Smt.Solver.check ~use_cache:false small_query)));
      Test.make ~name:"wire.flow_mod_roundtrip"
        (Staged.stage
           (let fm =
              {
                Openflow.Types.fm_match = Openflow.Types.match_all;
                cookie = 1L;
                command = 0;
                idle_timeout = 0;
                hard_timeout = 0;
                priority = 1;
                fm_buffer_id = 0xffffffffl;
                out_port = 0xffff;
                flags = 0;
                fm_actions = [ Openflow.Types.Output { port = 1; max_len = 0 } ];
              }
            in
            fun () ->
              ignore
                (Openflow.Wire.parse
                   (Openflow.Wire.serialize
                      { Openflow.Types.xid = 0l; payload = Openflow.Types.Flow_mod fm }))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-40s %14.0f ns/run\n%!" name est
          | _ -> Printf.printf "%-40s (no estimate)\n%!" name)
        results)
    tests

(* ---------------------------------------------------------------------- *)

let () =
  Printf.printf "SOFT evaluation harness (path budget per run: %d)\n" budget;
  Printf.printf "reproducing: Tables 1-5, Figure 4, sections 5.1.1 and 5.1.2\n";
  let t0 = Unix.gettimeofday () in
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  figure4 ();
  section_5_1_1 ();
  section_5_1_2 ();
  regression_rerun ();
  (* control runs from here down replay work cold on purpose; their query
     traffic is excluded from the closing cache totals *)
  ablation ablation_interval_filter;
  ablation ablation_balanced_disjunction;
  ablation ablation_group_splitting;
  ablation_structured_inputs ();
  ablation parallel_crosscheck;
  ablation incremental_crosscheck;
  supervised_crosscheck ();
  exploration_bench ();
  if Sys.getenv_opt "SOFT_BENCH_SKIP_MICRO" = None then microbenchmarks ();
  header "Summary";
  Printf.printf "total wall time: %.1fs\n" (Unix.gettimeofday () -. t0);
  Format.printf "solver totals: %a@." Smt.Solver.pp_stats ();
  record "meta"
    (J_obj
       [
         ("path_budget", J_int budget);
         ("wall_time", J_num (Unix.gettimeofday () -. t0));
       ]);
  record "solver" (solver_stats_json ());
  write_json ()
