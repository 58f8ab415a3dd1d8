(* softbench: the repository benchmark.

   One op is one timed [compare]: Phase 1 of both agents through the
   replay-validated verdict, driven through the public
   [Soft.Pipeline.compare_agents ~validate:true] entry point.  Untraced runs
   ([--trace 0]) report the end-to-end metrics.  Traced runs ([--trace 1])
   alternate untraced ops with traced ones, which make the calls
   [compare_agents] makes ([Harness.Runner.execute] per agent,
   [Soft.Grouping.of_run], [Soft.Crosscheck.check], [Soft.Validate.validate])
   under spans kept in memory, and report per-layer numbers.

   Every op passes through a correctness gate (see [gate]); a failed gate
   counts the op as failed and the run goes on.

   Usage (normally through run.py, which builds this executable first):
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
              [--expect-digest HEX] [--expect-verdict HEX] [--commit ID]
              [--source-digest HEX] [--out DIR]
   --smoke caps every agent at [smoke_paths] paths and keeps only the
   replay and self-consistency gates.
   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  The full record (environment,
   per-op gates, metric directions) goes to
   DIR/<workload>-seed<N>-trace<T>.json, and the spans of a traced run to
   DIR/<workload>-seed<N>.trace.jsonl. *)

module Spec = Harness.Test_spec
module Runner = Harness.Runner
module Engine = Symexec.Engine
module Solver = Smt.Solver
module Crosscheck = Soft.Crosscheck
module Validate = Soft.Validate
module Grouping = Soft.Grouping
module Pipeline = Soft.Pipeline

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* ---------------------------------------------------------------------- *)
(* JSON output *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec json_out b = function
  | Num f ->
    Buffer.add_string b (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        json_out b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        json_out b (Str k);
        Buffer.add_char b ':';
        json_out b v)
      kvs;
    Buffer.add_char b '}'

let json_string j =
  let b = Buffer.create 4096 in
  json_out b j;
  Buffer.contents b

(* ---------------------------------------------------------------------- *)
(* Metric catalogue: name, unit, direction.  An untraced run reports the
   end-to-end set, a traced run the per-layer set; BENCHMARK.json lists the
   same names, units and directions (the smoke test checks that). *)

type better = Lower | Higher

let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("compare_s", "s", Lower);
    ("decided_frac", "ratio", Higher);
    ("passed_frac", "ratio", Higher);
    ("confirmed_frac", "ratio", Higher);
    ("peak_rss_mb", "MB", Lower);
  ]

let per_layer =
  [
    (* Phase 1: Harness.Runner / Symexec.Engine *)
    ("symexec.wall_s", "s", Lower);
    ("symexec.cpu_s", "s", Lower);
    ("symexec.paths", "count", Higher);
    ("symexec.paths_per_s", "1/s", Higher);
    ("symexec.forks", "count", Lower);
    ("symexec.aborted", "count", Lower);
    ("symexec.sat_calls", "count", Lower);
    ("symexec.cache_hits", "count", Higher);
    ("symexec.interval_hits", "count", Higher);
    ("symexec.overlap", "ratio", Higher);
    (* Soft.Grouping *)
    ("grouping.s", "s", Lower);
    ("grouping.groups_ref", "count", Lower);
    ("grouping.groups_peer", "count", Lower);
    (* Soft.Crosscheck *)
    ("crosscheck.s", "s", Lower);
    ("crosscheck.pairs", "count", Lower);
    ("crosscheck.pairs_equal", "count", Higher);
    ("crosscheck.pairs_per_s", "1/s", Higher);
    ("crosscheck.inconsistencies", "count", Higher);
    ("crosscheck.undecided", "count", Lower);
    ("crosscheck.rows_pruned", "count", Higher);
    ("crosscheck.pairs_skipped_by_pruning", "count", Higher);
    (* Smt.Solver front end, deltas across the crosscheck call *)
    ("solver.queries", "count", Lower);
    ("solver.const_hits", "count", Higher);
    ("solver.interval_hits", "count", Higher);
    ("solver.cache_hits", "count", Higher);
    ("solver.canonical_hits", "count", Higher);
    ("solver.hit_rate", "ratio", Higher);
    ("solver.sat_calls", "count", Lower);
    ("solver.sat_s", "s", Lower);
    ("solver.cache_evictions", "count", Lower);
    ("solver.canon_small_skips", "count", Higher);
    (* Smt.Session / Smt.Sat / Smt.Exchange, same deltas *)
    ("session.opened", "count", Lower);
    ("session.assumption_solves", "count", Higher);
    ("session.shared_solves", "count", Higher);
    ("session.bases_adopted", "count", Lower);
    ("session.scratch_fallbacks", "count", Lower);
    ("session.tiny_fallbacks", "count", Lower);
    ("session.learnt_retained", "count", Higher);
    ("exchange.exported", "count", Higher);
    ("exchange.imported", "count", Higher);
    (* Soft.Validate, and the ground truth it confirms *)
    ("validate.s", "s", Lower);
    ("validate.confirmed", "count", Higher);
    ("validate.refuted", "count", Lower);
    ("validate.replay_failed", "count", Lower);
    ("truth.injected_found", "count", Higher);
    (* OCaml runtime, deltas across the op *)
    ("gc.minor_mb", "MB", Lower);
    ("gc.major_collections", "count", Lower);
    (* the trace itself, against the run's untraced ops *)
    ("trace.accounted_frac", "ratio", Higher);
    ("trace.overhead_s", "s", Lower);
  ]

(* the per-layer times whose sum the trace must account for *)
let layer_times = [ "symexec.wall_s"; "grouping.s"; "crosscheck.s"; "validate.s" ]

(* ---------------------------------------------------------------------- *)
(* Workloads *)

type workload = {
  w_name : string;
  w_peer : Switches.Agent_intf.t;  (** agent B; agent A is always the Reference Switch *)
  w_specs : unit -> Spec.t list;
  w_max_paths : int option;  (** per-agent path cap; [None] explores the full frontier *)
  w_jobs : int;  (** jobs requested; capped at the machine's cores *)
  w_warm : Switches.Agent_intf.t option;
      (** before each op, compare the suite against this agent to fill the
          memo caches; without it every op starts from cold caches *)
  w_ground_truth : bool;  (** gate on the Modified Switch's 5-of-7 detections *)
}

let reference = Switches.Reference_switch.agent

let workloads =
  [
    {
      w_name = "po-matrix";
      w_peer = Switches.Open_vswitch.agent;
      w_specs = (fun () -> [ Spec.packet_out () ]);
      w_max_paths = None;
      w_jobs = 1;
      w_warm = None;
      w_ground_truth = false;
    };
    {
      (* the full FlowMod frontier (4,457 x 8,661 paths) takes minutes per
         op; a 200-path cap keeps an op near 4 s so a run holds ~10 ops *)
      w_name = "flowmod-deep";
      w_peer = Switches.Open_vswitch.agent;
      w_specs = (fun () -> [ Spec.flow_mod () ]);
      w_max_paths = Some 200;
      w_jobs = 2;
      w_warm = None;
      w_ground_truth = false;
    };
    {
      (* the Table-3 suite minus Eth FlowMod, whose frontier a cap would
         cut: every test here is explored to exhaustion, so every seed does
         the same work and carries the same ground truth *)
      w_name = "patch-rerun";
      w_peer = Switches.Modified_switch.agent;
      w_specs =
        (fun () ->
          [
            Spec.packet_out (); Spec.stats_request (); Spec.set_config (); Spec.cs_flow_mods ();
            Spec.short_symb ();
          ]);
      w_max_paths = None;
      w_jobs = 1;
      w_warm = Some Switches.Open_vswitch.agent;
      w_ground_truth = true;
    };
  ]

(* the per-agent path cap of a smoke run *)
let smoke_paths = 6

(* ---------------------------------------------------------------------- *)
(* Tracing: spans kept in memory, written when the run ends *)

type span = {
  sp_id : int;
  sp_op : int;  (** spans of one op share this identifier *)
  sp_parent : int;  (** 0 for an op's root span *)
  sp_name : string;
  sp_start : float;
  sp_end : float;
}

let spans : span list ref = ref []
let next_span = ref 0

let fresh_span () =
  incr next_span;
  !next_span

let add_span id ~op ~parent name t0 t1 =
  spans :=
    { sp_id = id; sp_op = op; sp_parent = parent; sp_name = name; sp_start = t0; sp_end = t1 }
    :: !spans

(* open a span, run [f] under it, close it; [f] receives the span's id so
   its children can name their parent *)
let with_span ~op ~parent name f =
  let id = fresh_span () in
  let t0 = now () in
  let v = f id in
  add_span id ~op ~parent name t0 (now ());
  v

(* A layer's self time: the summed durations of the spans named after it.
   The four layer spans (symexec, grouping, crosscheck, validate) run one
   after another under the op's root and have no children in another layer;
   the agents' Phase-1 spans (symexec.ref, symexec.peer) sit inside symexec. *)
let span_time op_spans name =
  List.fold_left
    (fun acc s -> if s.sp_name = name then acc +. (s.sp_end -. s.sp_start) else acc)
    0.0 op_spans

let span_json s =
  Obj
    [
      ("id", Int s.sp_id); ("op", Int s.sp_op); ("parent", Int s.sp_parent);
      ("name", Str s.sp_name); ("start", Num s.sp_start); ("end", Num s.sp_end);
    ]

(* ---------------------------------------------------------------------- *)
(* One op *)

type config = {
  wl : workload;
  seed : int;
  max_paths : int option;
  jobs : int;
}

(* the seed reaches the program only as the exploration order *)
let strategy cfg = Symexec.Strategy.Random cfg.seed

let compare_untraced cfg specs =
  List.map
    (fun spec ->
      Pipeline.compare_agents ?max_paths:cfg.max_paths ~strategy:(strategy cfg) ~jobs:cfg.jobs
        ~validate:true reference cfg.wl.w_peer spec)
    specs

(* counters gathered by the traced calls of one op *)
type layer_counts = {
  mutable runs : Runner.run list;
  mutable groups_ref : int;
  mutable groups_peer : int;
  mutable agent_wall : float;  (** the two agents' Phase-1 wall times, summed *)
  mutable phase1_cpu : float;  (** process CPU seconds across Phase 1 *)
  mutable solver : (string * float) list;  (** solver deltas across the crosscheck *)
}

let copy_stats () =
  let s = Solver.stats () in
  { s with Solver.queries = s.Solver.queries }

let solver_deltas (b : Solver.stats) (a : Solver.stats) =
  let d f = float_of_int (f a - f b) in
  [
    ("solver.queries", d (fun s -> s.Solver.queries));
    ("solver.const_hits", d (fun s -> s.Solver.const_hits));
    ("solver.interval_hits", d (fun s -> s.Solver.interval_hits));
    ("solver.cache_hits", d (fun s -> s.Solver.cache_hits));
    ("solver.canonical_hits", d (fun s -> s.Solver.canonical_hits));
    ("solver.sat_calls", d (fun s -> s.Solver.sat_calls));
    ("solver.sat_s", a.Solver.solver_time -. b.Solver.solver_time);
    ("solver.cache_evictions", d (fun s -> s.Solver.cache_evictions));
    ("solver.canon_small_skips", d (fun s -> s.Solver.canon_small_skips));
    ("crosscheck.rows_pruned", d (fun s -> s.Solver.rows_pruned));
    ("crosscheck.pairs_skipped_by_pruning", d (fun s -> s.Solver.pairs_skipped_by_pruning));
    ("session.opened", d (fun s -> s.Solver.sessions_opened));
    ("session.assumption_solves", d (fun s -> s.Solver.assumption_solves));
    ("session.shared_solves", d (fun s -> s.Solver.shared_solves));
    ("session.bases_adopted", d (fun s -> s.Solver.bases_adopted));
    ("session.scratch_fallbacks", d (fun s -> s.Solver.scratch_fallbacks));
    ("session.tiny_fallbacks", d (fun s -> s.Solver.tiny_session_fallbacks));
    ("session.learnt_retained", d (fun s -> s.Solver.learnt_retained));
    ("exchange.exported", d (fun s -> s.Solver.clauses_exported));
    ("exchange.imported", d (fun s -> s.Solver.clauses_imported));
  ]

(* The calls [compare_agents] makes, in its order, each under a span.  With
   more than one job the two agents' Phase 1 runs concurrently on a
   two-domain pool, as it does in [compare_agents]. *)
let compare_traced cfg ~op ~root lc spec : Pipeline.comparison =
  let exec agent () =
    let t0 = now () in
    let r = Runner.execute ?max_paths:cfg.max_paths ~strategy:(strategy cfg) agent spec in
    (r, t0, now ())
  in
  let peer = cfg.wl.w_peer in
  let run_a, run_b =
    with_span ~op ~parent:root "symexec" (fun id ->
        let c0 = cpu_now () in
        let (run_a, a0, a1), (run_b, b0, b1) =
          if cfg.jobs <= 1 then
            let a = exec reference () in
            (a, exec peer ())
          else
            let worker_init, worker_exit = Crosscheck.solver_pool_hooks () in
            let rs =
              Harness.Pool.run ~worker_init ~worker_exit ~jobs:2 (fun f -> f ())
                [| exec reference; exec peer |]
            in
            let get = function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt in
            (get rs.(0), get rs.(1))
        in
        lc.phase1_cpu <- lc.phase1_cpu +. (cpu_now () -. c0);
        lc.agent_wall <- lc.agent_wall +. (a1 -. a0) +. (b1 -. b0);
        add_span (fresh_span ()) ~op ~parent:id "symexec.ref" a0 a1;
        add_span (fresh_span ()) ~op ~parent:id "symexec.peer" b0 b1;
        (run_a, run_b))
  in
  lc.runs <- run_a :: run_b :: lc.runs;
  let ga, gb =
    with_span ~op ~parent:root "grouping" (fun _ ->
        let ga = Grouping.of_run run_a in
        (ga, Grouping.of_run run_b))
  in
  lc.groups_ref <- lc.groups_ref + Grouping.distinct_results ga;
  lc.groups_peer <- lc.groups_peer + Grouping.distinct_results gb;
  let outcome =
    with_span ~op ~parent:root "crosscheck" (fun _ ->
        let before = copy_stats () in
        let o = Crosscheck.check ~jobs:cfg.jobs ga gb in
        let d = solver_deltas before (Solver.stats ()) in
        lc.solver <-
          (if lc.solver = [] then d
           else List.map2 (fun (k, x) (_, y) -> (k, x +. y)) lc.solver d);
        o)
  in
  let validation =
    with_span ~op ~parent:root "validate" (fun _ -> Validate.validate reference peer spec outcome)
  in
  {
    Pipeline.c_test = spec;
    c_run_a = run_a;
    c_run_b = run_b;
    c_grouped_a = ga;
    c_grouped_b = gb;
    c_outcome = outcome;
    c_validation = Some validation;
  }

(* ---------------------------------------------------------------------- *)
(* The correctness gate *)

type verdict = {
  digest : string;  (** of the concatenated [Crosscheck.render_stable] reports *)
  verdict_digest : string;
      (** of each test's pair, equal-pair, inconsistency and undecided
          counts.  Unlike the report these do not depend on the order
          expressions were interned in, which concurrent Phase-1 runs
          change from process to process; where every frontier is explored
          to exhaustion they are the same for every seed. *)
  pairs : int;
  pairs_equal : int;
  undecided : int;
  reported : int;
  confirmed : int;
  refuted : int;
  replay_failed : int;
  injected : string list;  (** Modified-Switch injections pinpointed *)
}

let key = Openflow.Trace.result_key

let verdict_of ~ground_truth (cs : Pipeline.comparison list) =
  let hex s = Digest.to_hex (Digest.string s) in
  let outcomes = List.map (fun c -> c.Pipeline.c_outcome) cs in
  let counts =
    List.map
      (fun (o : Crosscheck.outcome) ->
        Printf.sprintf "%s pairs=%d equal=%d inconsistencies=%d undecided=%d" o.o_test
          o.o_pairs_checked o.o_pairs_equal (Crosscheck.count o) (Crosscheck.undecided_count o))
      outcomes
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let vsum f =
    List.fold_left
      (fun acc c -> match c.Pipeline.c_validation with Some v -> acc + f v | None -> acc)
      0 cs
  in
  (* the attribution only means something against the Modified Switch *)
  let injected =
    if not ground_truth then []
    else
      List.concat_map
        (fun (o : Crosscheck.outcome) ->
          List.filter_map
            (fun (i : Crosscheck.inconsistency) ->
              Switches.Modified_switch.attribute_inconsistency ~test:o.o_test
                ~key_a:(key i.i_result_a) ~key_b:(key i.i_result_b))
            o.o_inconsistencies)
        outcomes
  in
  {
    digest = hex (String.concat "" (List.map Crosscheck.render_stable outcomes));
    verdict_digest = hex (String.concat "\n" counts);
    pairs = sum (fun o -> o.Crosscheck.o_pairs_checked);
    pairs_equal = sum (fun o -> o.Crosscheck.o_pairs_equal);
    undecided = sum Crosscheck.undecided_count;
    reported = sum Crosscheck.count;
    confirmed = vsum (fun v -> v.Validate.vs_confirmed);
    refuted = vsum (fun v -> v.Validate.vs_refuted);
    replay_failed = vsum (fun v -> v.Validate.vs_failed);
    injected = List.sort_uniq compare injected;
  }

let detectable =
  List.sort compare
    (List.filter_map
       (fun (m : Switches.Modified_switch.injected) ->
         if m.inj_detectable then Some m.inj_id else None)
       Switches.Modified_switch.injected_modifications)

type expect = {
  e_digest : string option;  (** recorded for this workload and seed *)
  e_verdict : string option;  (** recorded for this workload and seed, or for any seed *)
  e_first : string option ref;  (** the run's first digest, when none is recorded *)
  e_smoke : bool;  (** tiny budgets: only the replay and self-consistency checks apply *)
}

(* the reasons an op fails its gate; [] passes *)
let gate cfg ex v =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if v.refuted > 0 then fail "%d inconsistencies refuted by replay" v.refuted;
  if v.replay_failed > 0 then fail "%d inconsistencies failed to replay" v.replay_failed;
  (match (ex.e_digest, !(ex.e_first)) with
   | Some d, _ when not ex.e_smoke ->
     if v.digest <> d then fail "report digest %s, recorded %s" v.digest d
   | _, None -> ex.e_first := Some v.digest
   | _, Some d ->
     if v.digest <> d then fail "report digest %s differs from the run's first, %s" v.digest d);
  (match ex.e_verdict with
   | Some d when not ex.e_smoke ->
     if v.verdict_digest <> d then fail "verdict digest %s, recorded %s" v.verdict_digest d
   | _ -> ());
  if cfg.wl.w_ground_truth && (not ex.e_smoke) && v.injected <> detectable then
    fail "injected differences found: [%s], expected [%s]" (String.concat "," v.injected)
      (String.concat "," detectable);
  List.rev !fails

(* ---------------------------------------------------------------------- *)
(* The run *)

type op_result = {
  o_index : int;
  o_traced : bool;
  o_time : float;
  o_cpu : float;  (** process CPU seconds across the op *)
  o_verdict : verdict option;  (** [None]: the op raised *)
  o_failures : string list;
  o_layers : (string * float) list;  (** traced ops only *)
}

(* peak resident memory of this process: VmHWM where /proc has it, the
   major heap's peak otherwise *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
            try Some (Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let layer_metrics lc ~op v gc0 gc1 =
  let self = span_time (List.filter (fun s -> s.sp_op = op) !spans) in
  let engine f = float_of_int (List.fold_left (fun acc r -> acc + f r.Runner.run_stats) 0 lc.runs) in
  let paths = engine (fun s -> s.Engine.path_count) in
  let solver k = List.assoc k lc.solver in
  [
    ("symexec.wall_s", self "symexec");
    ("symexec.cpu_s", lc.phase1_cpu);
    ("symexec.paths", paths);
    ("symexec.paths_per_s", ratio paths (self "symexec"));
    ("symexec.forks", engine (fun s -> s.Engine.forks));
    ("symexec.aborted", engine (fun s -> s.Engine.aborted));
    ("symexec.sat_calls", engine (fun s -> s.Engine.solver_sat_calls));
    ("symexec.cache_hits", engine (fun s -> s.Engine.solver_cache_hits));
    ("symexec.interval_hits", engine (fun s -> s.Engine.solver_interval_hits));
    ("symexec.overlap", ratio lc.agent_wall (self "symexec"));
    ("grouping.s", self "grouping");
    ("grouping.groups_ref", float_of_int lc.groups_ref);
    ("grouping.groups_peer", float_of_int lc.groups_peer);
    ("crosscheck.s", self "crosscheck");
    ("crosscheck.pairs", float_of_int v.pairs);
    ("crosscheck.pairs_equal", float_of_int v.pairs_equal);
    ("crosscheck.pairs_per_s", ratio (float_of_int v.pairs) (self "crosscheck"));
    ("crosscheck.inconsistencies", float_of_int v.reported);
    ("crosscheck.undecided", float_of_int v.undecided);
    ( "solver.hit_rate",
      ratio (solver "solver.cache_hits" +. solver "solver.canonical_hits") (solver "solver.queries")
    );
    ("validate.s", self "validate");
    ("validate.confirmed", float_of_int v.confirmed);
    ("validate.refuted", float_of_int v.refuted);
    ("validate.replay_failed", float_of_int v.replay_failed);
    ("truth.injected_found", float_of_int (List.length v.injected));
    ( "gc.minor_mb",
      (gc1.Gc.minor_words -. gc0.Gc.minor_words) *. float_of_int (Sys.word_size / 8) /. 1e6 );
    ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  ]
  @ lc.solver

let run_op cfg ex ~index ~traced specs =
  let lc =
    { runs = []; groups_ref = 0; groups_peer = 0; agent_wall = 0.0; phase1_cpu = 0.0; solver = [] }
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () and c0 = cpu_now () in
  let result =
    try
      Ok
        (if not traced then compare_untraced cfg specs
         else
           with_span ~op:index ~parent:0 "compare" (fun root ->
               List.map (compare_traced cfg ~op:index ~root lc) specs))
    with
    | Out_of_memory -> raise Out_of_memory
    | e -> Error (Printexc.to_string e)
  in
  let time = now () -. t0 and cpu = cpu_now () -. c0 in
  let gc1 = Gc.quick_stat () in
  let base =
    {
      o_index = index; o_traced = traced; o_time = time; o_cpu = cpu; o_verdict = None;
      o_failures = []; o_layers = [];
    }
  in
  match result with
  | Error msg -> { base with o_failures = [ "raised " ^ msg ] }
  | Ok cs ->
    let v = verdict_of ~ground_truth:cfg.wl.w_ground_truth cs in
    {
      base with
      o_verdict = Some v;
      o_failures = gate cfg ex v;
      o_layers = (if traced then layer_metrics lc ~op:index v gc0 gc1 else []);
    }

type args = {
  a_workload : string;
  a_seed : int;
  a_seconds : float;
  a_trace : bool;
  a_smoke : bool;
  a_expect_digest : string option;
  a_expect_verdict : string option;
  a_commit : string;
  a_source_digest : string;
  a_out : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n\
    \       [--expect-digest HEX] [--expect-verdict HEX] [--commit ID] [--source-digest HEX] \
     [--out DIR]";
  exit 2

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--smoke" :: rest -> go { a with a_smoke = true } rest
    | flag :: v :: rest ->
      let a =
        try
          match flag with
          | "--workload" -> { a with a_workload = v }
          | "--seed" -> { a with a_seed = int_of_string v }
          | "--seconds" -> { a with a_seconds = float_of_string v }
          | "--trace" -> { a with a_trace = int_of_string v <> 0 }
          | "--expect-digest" -> { a with a_expect_digest = Some v }
          | "--expect-verdict" -> { a with a_expect_verdict = Some v }
          | "--commit" -> { a with a_commit = v }
          | "--source-digest" -> { a with a_source_digest = v }
          | "--out" -> { a with a_out = v }
          | _ -> usage ()
        with Failure _ -> usage ()
      in
      go a rest
    | [ _ ] -> usage ()
  in
  go
    {
      a_workload = ""; a_seed = 1; a_seconds = 10.0; a_trace = false; a_smoke = false;
      a_expect_digest = None; a_expect_verdict = None; a_commit = "unknown";
      a_source_digest = "unknown"; a_out = ".softbench";
    }
    (List.tl (Array.to_list Sys.argv))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* one build of the workload's specs and agents, timed in a batch long
   enough for the clock to resolve *)
let time_builds wl =
  let t0 = now () and n = ref 0 in
  while !n = 0 || now () -. t0 < 0.02 do
    ignore (Sys.opaque_identity (wl.w_specs (), reference, wl.w_peer));
    incr n
  done;
  (now () -. t0) /. float_of_int !n

let () =
  let a = parse_args () in
  let wl =
    match List.find_opt (fun w -> w.w_name = a.a_workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" a.a_workload
        (String.concat ", " (List.map (fun w -> w.w_name) workloads));
      exit 2
  in
  let nproc = Domain.recommended_domain_count () in
  let jobs = max 1 (min wl.w_jobs nproc) in
  (* a -j2 workload on one core is measured at -j1 and recorded as such,
     never under the -j2 label *)
  let skipped =
    if jobs < wl.w_jobs then
      [
        Printf.sprintf "%s at -j%d: skipped_insufficient_cores (nproc=%d), measured at -j%d"
          wl.w_name wl.w_jobs nproc jobs;
      ]
    else []
  in
  let max_paths = if a.a_smoke then Some smoke_paths else wl.w_max_paths in
  let cfg = { wl; seed = a.a_seed; max_paths; jobs } in
  let ex =
    {
      e_digest = a.a_expect_digest; e_verdict = a.a_expect_verdict; e_first = ref None;
      e_smoke = a.a_smoke;
    }
  in
  let specs = wl.w_specs () in
  (* Set-up: building specs and agents, and on a warm workload the pass
     that fills the memo caches.  It is repeated before every op (the op's
     own queries would otherwise warm the next op), so each op adds one
     set-up sample. *)
  let setup_samples = ref [] in
  let prepare () =
    Solver.clear_cache ();
    let sample =
      match wl.w_warm with
      | None -> time_builds wl
      | Some warm_peer ->
        let t0 = now () in
        List.iter
          (fun spec ->
            ignore
              (Pipeline.compare_agents ?max_paths ~strategy:(strategy cfg) ~jobs reference
                 warm_peer spec))
          (wl.w_specs ());
        now () -. t0
    in
    setup_samples := sample :: !setup_samples;
    (* every op starts from the same heap: no collection debt left by the
       previous op or the warm pass lands inside the timed window *)
    Gc.full_major ()
  in
  (* A warm pass takes seconds: the run reports its median.  A batch of
     builds takes microseconds per build, and whatever else runs on the
     machine only adds to it; the same batch took about 6 or about 10 us
     from one op to the next, so a median flips between the two and the
     run reports its fastest batch instead. *)
  let setup_s () =
    match wl.w_warm with
    | Some _ -> median !setup_samples
    | None -> List.fold_left Float.min infinity !setup_samples
  in
  (* the measured window: ops run back to back (a closed loop of one
     client) until the next would end more than half an op past
     --seconds, so the window centres on --seconds *)
  let ops = ref [] and index = ref 0 and last_cycle = ref 0.0 in
  let min_ops = if a.a_trace then 2 else 1 in
  let start = now () in
  while !index < min_ops || now () -. start +. (!last_cycle /. 2.0) <= a.a_seconds do
    let c0 = now () in
    prepare ();
    incr index;
    (* a traced run alternates: odd ops untraced, even ops traced *)
    let traced = a.a_trace && !index mod 2 = 0 in
    ops := run_op cfg ex ~index:!index ~traced specs :: !ops;
    last_cycle := now () -. c0
  done;
  let ops = List.rev !ops in
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun o -> o.o_failures <> []) ops) in
  let verdicts = List.filter_map (fun o -> o.o_verdict) ops in
  let vsum f = float_of_int (List.fold_left (fun acc v -> acc + f v) 0 verdicts) in
  let untraced = median (List.filter_map (fun o -> if o.o_traced then None else Some o.o_time) ops) in
  let traced_ops = List.filter (fun o -> o.o_traced && o.o_verdict <> None) ops in
  let values =
    if not a.a_trace then
      [
        ("setup_s", setup_s ());
        ("compare_s", untraced);
        ("decided_frac", 1.0 -. ratio (vsum (fun v -> v.undecided)) (vsum (fun v -> v.pairs)));
        ("passed_frac", float_of_int (attempted - failed) /. float_of_int attempted);
        ("confirmed_frac", ratio (vsum (fun v -> v.confirmed)) (vsum (fun v -> v.reported)));
        ("peak_rss_mb", peak_rss_mb ());
      ]
    else
      List.map
        (fun (name, _, _) ->
          match name with
          | "trace.overhead_s" -> (name, median (List.map (fun o -> o.o_time) traced_ops) -. untraced)
          | "trace.accounted_frac" ->
            (* the traced layers' self times against the untraced op: a
               traced re-creation of compare_agents that drifts in cost from
               the real one moves this away from 1 *)
            let layers o = List.fold_left (fun acc k -> acc +. List.assoc k o.o_layers) 0.0 layer_times in
            (name, ratio (median (List.map layers traced_ops)) untraced)
          | _ -> (name, median (List.filter_map (fun o -> List.assoc_opt name o.o_layers) traced_ops)))
        per_layer
  in
  let catalogue = if a.a_trace then per_layer else end_to_end in
  let metrics ~with_direction =
    Obj
      (List.map
         (fun (name, unit, better) ->
           let v = List.assoc name values in
           ( name,
             Obj
               ([ ("value", Num (if Float.is_finite v then v else 0.0)); ("unit", Str unit) ]
               @
               if with_direction then
                 [ ("better", Str (match better with Lower -> "lower" | Higher -> "higher")) ]
               else []) ))
         catalogue)
  in
  let correct = failed = 0 in
  let strs l = Arr (List.map (fun s -> Str s) l) in
  let op_json o =
    Obj
      ([
         ("index", Int o.o_index); ("traced", Bool o.o_traced); ("time_s", Num o.o_time);
         ("cpu_s", Num o.o_cpu);
         ("failures", strs o.o_failures);
       ]
      @
      match o.o_verdict with
      | None -> []
      | Some v ->
        [
          ("digest", Str v.digest); ("verdict_digest", Str v.verdict_digest);
          ("pairs", Int v.pairs); ("undecided", Int v.undecided); ("reported", Int v.reported);
          ("confirmed", Int v.confirmed); ("refuted", Int v.refuted);
          ("replay_failed", Int v.replay_failed); ("injected", strs v.injected);
        ])
  in
  let record =
    Obj
      [
        ("workload", Str wl.w_name); ("seed", Int a.a_seed); ("seconds", Num a.a_seconds);
        ("trace", Bool a.a_trace); ("smoke", Bool a.a_smoke);
        ("max_paths", match max_paths with Some n -> Int n | None -> Str "full");
        ( "env",
          Obj
            [
              ("nproc", Int nproc); ("jobs_requested", Int wl.w_jobs); ("jobs_used", Int jobs);
              ("skipped", strs skipped); ("ocaml", Str Sys.ocaml_version);
              ("commit", Str a.a_commit); ("source_digest", Str a.a_source_digest);
            ] );
        ("correct", Bool correct); ("attempted", Int attempted); ("failed", Int failed);
        ("setup_samples_s", Arr (List.rev_map (fun x -> Num x) !setup_samples));
        ("metrics", metrics ~with_direction:true); ("ops", Arr (List.map op_json ops));
      ]
  in
  mkdir_p a.a_out;
  let record_path =
    Filename.concat a.a_out
      (Printf.sprintf "%s-seed%d-trace%d.json" wl.w_name a.a_seed (if a.a_trace then 1 else 0))
  in
  Out_channel.with_open_text record_path (fun oc ->
      Out_channel.output_string oc (json_string record ^ "\n"));
  if a.a_trace then
    Out_channel.with_open_text
      (Filename.concat a.a_out (Printf.sprintf "%s-seed%d.trace.jsonl" wl.w_name a.a_seed))
      (fun oc ->
        List.iter
          (fun s -> Out_channel.output_string oc (json_string (span_json s) ^ "\n"))
          (List.rev !spans));
  List.iter
    (fun o ->
      Printf.printf "op %d%s: %.3fs %s\n" o.o_index
        (if o.o_traced then " (traced)" else "")
        o.o_time
        (match o.o_failures with [] -> "ok" | fs -> "FAILED: " ^ String.concat "; " fs))
    ops;
  List.iter (Printf.printf "skipped: %s\n") skipped;
  Printf.printf "record: %s\n" record_path;
  print_endline
    (json_string
       (Obj
          [
            ("correct", Bool correct); ("attempted", Int attempted); ("failed", Int failed);
            ("metrics", metrics ~with_direction:false);
          ]))
