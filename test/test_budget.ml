(* The robustness layer: solver budgets and the tri-state result, the
   bounded memo cache, crosscheck's chunk-split retry ladder and undecided
   pairs, checkpoint/resume, and crash isolation in the engine, runner and
   pipeline.  The central properties: a pathological query costs bounded
   effort and degrades to [Unknown]/undecided instead of hanging or lying,
   and a killed-then-resumed crosscheck reports exactly what an
   uninterrupted one does. *)

open Smt
module Engine = Symexec.Engine
module Trace = Openflow.Trace

let c16 v = Expr.const ~width:16 (Int64.of_int v)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

(* An UNSAT pigeonhole instance PHP(p, p-1): every resolution-style solver
   needs many conflicts, so tiny budgets reliably exhaust. *)
let pigeonhole p =
  let holes = p - 1 in
  let s = Sat.create () in
  let v = Array.init p (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for i = 0 to p - 1 do
    Sat.add_clause s (List.init holes (fun j -> 2 * v.(i).(j)))
  done;
  for j = 0 to holes - 1 do
    for i = 0 to p - 1 do
      for k = i + 1 to p - 1 do
        Sat.add_clause s [ (2 * v.(i).(j)) + 1; (2 * v.(k).(j)) + 1 ]
      done
    done
  done;
  s

(* --- SAT-core budgets ------------------------------------------------- *)

let test_sat_budget_conflicts () =
  check_bool "unbudgeted PHP(5) is UNSAT" true (Sat.solve (pigeonhole 5) = Sat.Unsat);
  check_bool "conflict budget exhausts" true
    (Sat.solve ~max_conflicts:2 (pigeonhole 6) = Sat.Unknown Sat.Conflicts)

let test_sat_budget_decisions () =
  check_bool "decision budget exhausts" true
    (Sat.solve ~max_decisions:1 (pigeonhole 6) = Sat.Unknown Sat.Decisions)

let test_sat_budget_deadline () =
  check_bool "expired deadline exhausts" true
    (Sat.solve ~deadline:(Mono.now () -. 1.0) (pigeonhole 6) = Sat.Unknown Sat.Time);
  (* the instance survives an exhausted solve and can still be decided *)
  let s = pigeonhole 5 in
  check_bool "budgeted attempt is Unknown" true
    (Sat.solve ~max_conflicts:1 s = Sat.Unknown Sat.Conflicts);
  check_bool "same instance solvable afterwards" true (Sat.solve s = Sat.Unsat)

let test_mono_clock () =
  let t0 = Mono.now () in
  let t1 = Mono.now () in
  check_bool "monotonic" true (t1 >= t0);
  check_bool "ns positive" true (Int64.compare (Mono.now_ns ()) 0L > 0)

(* --- frontend budgets and Unknown semantics --------------------------- *)

(* [x <> const] needs at least one CDCL decision, and the interval filter
   cannot decide it, so a zero-decision budget forces Unknown. *)
let hard_for_zero_decisions name = [ Expr.neq (Expr.var ~width:16 name) (c16 0) ]

let zero_decisions = Solver.budget ~max_decisions:0 ()

let test_check_unknown () =
  match Solver.check ~use_cache:false ~budget:zero_decisions (hard_for_zero_decisions "bud.a") with
  | Solver.Unknown Solver.Out_of_decisions -> ()
  | Solver.Unknown r -> Alcotest.failf "wrong reason: %s" (Solver.unknown_reason_to_string r)
  | Solver.Sat _ | Solver.Unsat -> Alcotest.fail "expected Unknown"

let test_check_timeout () =
  check_bool "zero wall-clock budget" true
    (Solver.check ~use_cache:false
       ~budget:(Solver.budget ~timeout_ms:0 ())
       (hard_for_zero_decisions "bud.b")
    = Solver.Unknown Solver.Out_of_time)

let test_unknown_semantics () =
  let q = hard_for_zero_decisions "bud.c" in
  check_bool "is_sat refuses to claim sat" false (Solver.is_sat ~use_cache:false ~budget:zero_decisions q);
  check_bool "get_model has no model" true
    (Solver.get_model ~use_cache:false ~budget:zero_decisions q = None);
  (* a true entailment the interval domain cannot certify: x xor y = 0
     entails x = y; Unknown must answer false, an adequate budget true *)
  let xor_entailment tag =
    let x = Expr.var ~width:16 (tag ^ ".x") and y = Expr.var ~width:16 (tag ^ ".y") in
    ([ Expr.eq (Expr.logxor x y) (c16 0) ], Expr.eq x y)
  in
  (* distinct variables per call: the memo cache must not leak the
     unbudgeted answer into the budgeted query *)
  let pc, c = xor_entailment "bud.e1" in
  check_bool "entailment provable with no budget" true (Solver.entails pc c);
  let pc, c = xor_entailment "bud.e2" in
  check_bool "entailment refused under exhausted budget" false
    (Solver.entails ~budget:zero_decisions pc c)

let test_unknown_not_cached () =
  let q = hard_for_zero_decisions "bud.nc" in
  check_bool "budgeted attempt is Unknown" true
    (match Solver.check ~use_cache:true ~budget:zero_decisions q with
     | Solver.Unknown _ -> true
     | _ -> false);
  (* if the Unknown had been memoized, this identical unbudgeted query
     would replay it instead of solving *)
  check_bool "identical query solves once the budget allows" true
    (match Solver.check ~use_cache:true q with Solver.Sat _ -> true | _ -> false)

let test_default_budget () =
  Fun.protect
    ~finally:(fun () -> Solver.set_default_budget Solver.no_budget)
    (fun () ->
      Solver.set_default_budget zero_decisions;
      check_bool "default budget reaches budget-less calls" true
        (match Solver.check ~use_cache:false (hard_for_zero_decisions "bud.d") with
         | Solver.Unknown _ -> true
         | _ -> false);
      (* an explicit budget still overrides the default *)
      check_bool "explicit budget overrides default" true
        (match
           Solver.check ~use_cache:false ~budget:Solver.no_budget
             (hard_for_zero_decisions "bud.e")
         with
         | Solver.Sat _ -> true
         | _ -> false))

let test_cache_bounded () =
  Fun.protect
    ~finally:(fun () ->
      Solver.set_cache_capacity 65536;
      Solver.clear_cache ())
    (fun () ->
      Solver.set_cache_capacity 4;
      Solver.clear_cache ();
      let evictions0 = (Solver.stats ()).Solver.cache_evictions in
      for i = 0 to 9 do
        ignore
          (Solver.check ~use_cache:true
             [ Expr.eq (Expr.var ~width:16 "bud.cap") (c16 (1000 + i)) ])
      done;
      check_bool "overflow flushes the memo table" true
        ((Solver.stats ()).Solver.cache_evictions > evictions0));
  Alcotest.check_raises "non-positive capacity rejected"
    (Invalid_argument "Solver.set_cache_capacity: capacity must be positive") (fun () ->
      Solver.set_cache_capacity 0)

(* --- chunk_conds ------------------------------------------------------ *)

let test_chunk_conds () =
  let x = Expr.var ~width:16 "chk.x" in
  let conds = List.init 5 (fun i -> Expr.eq x (c16 (i + 1))) in
  check_int "n=2 makes three chunks" 3 (List.length (Soft.Crosscheck.chunk_conds 2 conds));
  check_int "n=1 makes one chunk per cond" 5 (List.length (Soft.Crosscheck.chunk_conds 1 conds));
  check_int "n >= length makes one chunk" 1 (List.length (Soft.Crosscheck.chunk_conds 10 conds));
  check_int "empty input, no chunks" 0 (List.length (Soft.Crosscheck.chunk_conds 3 []));
  (* chunking preserves the union: each member value satisfies exactly one chunk *)
  let chunks = Soft.Crosscheck.chunk_conds 2 conds in
  List.iter
    (fun v ->
      let m = Model.of_bindings [ (Expr.make_var "chk.x" 16, v) ] in
      check_int
        (Printf.sprintf "x=%Ld in exactly one chunk" v)
        1
        (List.length (List.filter (Model.eval_bool m) chunks)))
    [ 1L; 2L; 3L; 4L; 5L ];
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Crosscheck.chunk_conds: chunk size must be positive") (fun () ->
      ignore (Soft.Crosscheck.chunk_conds 0 conds));
  Alcotest.check_raises "negative n rejected"
    (Invalid_argument "Crosscheck.chunk_conds: chunk size must be positive") (fun () ->
      ignore (Soft.Crosscheck.chunk_conds (-3) conds))

(* --- sat_pair: budgets and the retry ladder --------------------------- *)

let result trace = { Trace.trace; crash = None }

let group key members =
  {
    Soft.Grouping.g_result = result [ key ];
    g_key = key;
    g_cond = Expr.balanced_disj members;
    g_member_conds = members;
    g_path_count = List.length members;
  }

(* Two disjoint 4-member groups.  The monolithic disjunction pair needs the
   SAT core (the interval domain cannot see through an or-tree), so a
   zero-decision budget leaves it Unknown; singleton chunk pairs are
   constant-vs-constant equality clashes the interval filter kills for
   free.  The ladder therefore rescues the verdict that the monolithic
   attempt lost. *)
let disjoint_pair () =
  let x = Expr.var ~width:16 "lad.x" in
  let a = group "A" (List.init 4 (fun i -> Expr.eq x (c16 (i + 1)))) in
  let b = group "B" (List.init 4 (fun i -> Expr.eq x (c16 (i + 9)))) in
  (a, b)

let test_sat_pair_plain () =
  let x = Expr.var ~width:16 "sp.x" in
  let a = group "A" [ Expr.ult x (c16 10) ] in
  let b = group "B" [ Expr.eq x (c16 5) ] in
  (match Soft.Crosscheck.sat_pair a b with
   | Soft.Crosscheck.Pair_sat m ->
     check_bool "witness in both groups" true
       (Model.eval_bool m a.Soft.Grouping.g_cond && Model.eval_bool m b.Soft.Grouping.g_cond)
   | _ -> Alcotest.fail "expected Pair_sat");
  let b' = group "B" [ Expr.uge x (c16 10) ] in
  check_bool "disjoint pair is Pair_unsat" true
    (Soft.Crosscheck.sat_pair a b' = Soft.Crosscheck.Pair_unsat)

let test_sat_pair_ladder_rescues () =
  let a, b = disjoint_pair () in
  (* no ladder: the budget-starved monolithic attempt stays undecided *)
  check_bool "without the ladder: undecided" true
    (Soft.Crosscheck.sat_pair ~budget:zero_decisions ~retry:[] a b
    = Soft.Crosscheck.Pair_undecided);
  (* the default ladder reaches singleton chunks, which the interval
     filter decides without spending any of the budget *)
  check_bool "with the ladder: proven disjoint" true
    (Soft.Crosscheck.sat_pair ~budget:zero_decisions a b = Soft.Crosscheck.Pair_unsat);
  (* starting split at 1 never needs the ladder at all *)
  check_bool "split=1 from the start: proven disjoint" true
    (Soft.Crosscheck.sat_pair ~split:1 ~budget:zero_decisions a b
    = Soft.Crosscheck.Pair_unsat)

let test_sat_pair_undecided () =
  (* singleton groups whose one query needs a decision: every rung
     re-chunks to the same shape, so the verdict degrades to undecided —
     and does so immediately, not after hanging *)
  let x = Expr.var ~width:16 "ud.x" in
  let a = group "A" [ Expr.neq x (c16 0) ] in
  let b = group "B" [ Expr.neq x (c16 1) ] in
  check_bool "all attempts exhausted: undecided" true
    (Soft.Crosscheck.sat_pair ~budget:zero_decisions a b = Soft.Crosscheck.Pair_undecided)

(* --- crosscheck: undecided pairs in the outcome ----------------------- *)

let grouped name groups =
  { Soft.Grouping.gr_agent = name; gr_test = "budget-test"; gr_groups = groups; gr_group_time = 0.0 }

let test_check_reports_undecided () =
  let x = Expr.var ~width:16 "ud2.x" in
  let a = grouped "a" [ group "A" [ Expr.neq x (c16 0) ] ] in
  let b = grouped "b" [ group "B" [ Expr.neq x (c16 1) ] ] in
  let o = Soft.Crosscheck.check ~budget:zero_decisions a b in
  check_int "no inconsistency claimed" 0 (Soft.Crosscheck.count o);
  check_int "one pair undecided" 1 (Soft.Crosscheck.undecided_count o);
  Alcotest.(check (pair string string))
    "undecided pair names both result keys" ("A", "B")
    (List.hd o.Soft.Crosscheck.o_pairs_undecided);
  (* same pair with an adequate budget: decided, nothing undecided *)
  let o' = Soft.Crosscheck.check a b in
  check_int "decidable with budget" 0 (Soft.Crosscheck.undecided_count o');
  check_int "and it is an inconsistency" 1 (Soft.Crosscheck.count o')

(* A non-positive split would otherwise die inside [chunk_conds] in every
   row task, and the run would return with every pair "faulted"; it is a
   caller error, rejected before any solving like [jobs < 1]. *)
let test_check_rejects_bad_split () =
  let x = Expr.var ~width:16 "bs.x" in
  let a = grouped "a" [ group "A" [ Expr.ult x (c16 10) ] ] in
  let b = grouped "b" [ group "B" [ Expr.eq x (c16 5) ] ] in
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "split %d rejected" n)
        (Invalid_argument "Crosscheck.check: split must be positive")
        (fun () -> ignore (Soft.Crosscheck.check ~split:n a b)))
    [ 0; -2 ];
  check_int "split 1 still decides the pair" 1
    (Soft.Crosscheck.count (Soft.Crosscheck.check ~split:1 a b))

(* A pathological pair: a group disjunction too hard for the budget on
   every rung of the ladder still terminates (quickly) and is reported
   undecided rather than hanging the crosscheck — the failure mode that
   killed the paper's own STP runs (§5.2). *)
let test_pathological_pair_terminates () =
  let xs = List.init 6 (fun i -> Expr.var ~width:16 (Printf.sprintf "path.x%d" i)) in
  let chain =
    (* x0 ^ x1 ^ ... ^ x5 <> 0: satisfiable, but never by propagation alone *)
    Expr.neq (List.fold_left Expr.logxor (c16 0) xs) (c16 0)
  in
  let a = grouped "a" [ group "A" [ chain ] ] in
  let b = grouped "b" [ group "B" [ chain ] ] in
  let t0 = Mono.now () in
  let o = Soft.Crosscheck.check ~budget:zero_decisions a b in
  check_bool "terminates fast" true (Mono.elapsed t0 < 5.0);
  check_int "reported undecided, not dropped" 1 (Soft.Crosscheck.undecided_count o)

(* --- checkpoint / resume ---------------------------------------------- *)

(* The Figure 1 toy agents from test_soft: three results vs two, exactly
   one genuine inconsistency (p = OFPP_CONTROLLER). *)
let fig1_agent1 env p =
  if Engine.branch_eq env p 0xfffdL then Engine.emit env "CTRL"
  else if Engine.branch env (Expr.ult p (c16 25)) then Engine.emit env "FWD"
  else Engine.emit env "ERR"

let fig1_agent2 env p =
  if Engine.branch env (Expr.ult p (c16 25)) then Engine.emit env "FWD"
  else Engine.emit env "ERR"

let run_toy name program =
  let r = Engine.run program in
  let paths =
    List.map
      (fun (pr : string Engine.path_result) ->
        ({ Trace.trace = pr.Engine.events; crash = None }, pr.Engine.path_cond))
      r.Engine.results
  in
  {
    Soft.Grouping.gr_agent = name;
    gr_test = "fig1";
    gr_groups = Soft.Grouping.group_paths paths;
    gr_group_time = 0.0;
  }

let witness_bindings o =
  List.map
    (fun (i : Soft.Crosscheck.inconsistency) -> Model.bindings i.Soft.Crosscheck.i_witness)
    o.Soft.Crosscheck.o_inconsistencies

let check_same_outcome msg (expected : Soft.Crosscheck.outcome) (got : Soft.Crosscheck.outcome) =
  check_int (msg ^ ": inconsistencies") (Soft.Crosscheck.count expected) (Soft.Crosscheck.count got);
  check_int (msg ^ ": pairs checked") expected.Soft.Crosscheck.o_pairs_checked
    got.Soft.Crosscheck.o_pairs_checked;
  check_int (msg ^ ": pairs equal") expected.Soft.Crosscheck.o_pairs_equal
    got.Soft.Crosscheck.o_pairs_equal;
  Alcotest.(check (list (pair string string)))
    (msg ^ ": undecided pairs")
    expected.Soft.Crosscheck.o_pairs_undecided got.Soft.Crosscheck.o_pairs_undecided;
  check_bool (msg ^ ": identical witnesses") true
    (witness_bindings expected = witness_bindings got)

exception Killed

let test_checkpoint_resume_equivalence () =
  let p = Expr.var ~width:16 "fig1.p" in
  let a = run_toy "agent1" (fun env -> fig1_agent1 env p) in
  let b = run_toy "agent2" (fun env -> fig1_agent2 env p) in
  let uninterrupted = Soft.Crosscheck.check a b in
  check_int "toy example has one inconsistency" 1 (Soft.Crosscheck.count uninterrupted);
  let file = Filename.temp_file "soft_ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      (* "kill" the run the moment it finds the inconsistency; snapshots
         every decided pair mean the checkpoint holds the progress so far *)
      (match
         Soft.Crosscheck.check ~checkpoint:file ~checkpoint_every:1
           ~on_found:(fun _ -> raise Killed)
           a b
       with
       | _ -> Alcotest.fail "the injected kill did not fire"
       | exception Killed -> ());
      check_bool "checkpoint written before the kill" true (Sys.file_exists file);
      let resumed = Soft.Crosscheck.check ~resume:file a b in
      check_same_outcome "resumed = uninterrupted" uninterrupted resumed;
      (* a full checkpoint replays entirely — no pair is re-solved, and the
         witnesses survive the serialization round-trip *)
      let full = Soft.Crosscheck.check ~checkpoint:file a b in
      let st = Solver.stats () in
      let queries0 = st.Solver.queries and sat_calls0 = st.Solver.sat_calls in
      let replayed = Soft.Crosscheck.check ~resume:file a b in
      check_same_outcome "replayed = checkpointed" full replayed;
      check_int "full replay makes no solver query" 0 (st.Solver.queries - queries0);
      check_int "full replay makes no SAT call" 0 (st.Solver.sat_calls - sat_calls0))

let test_resume_missing_file_is_fresh () =
  let p = Expr.var ~width:16 "fig1.p" in
  let a = run_toy "agent1" (fun env -> fig1_agent1 env p) in
  let b = run_toy "agent2" (fun env -> fig1_agent2 env p) in
  let o =
    Soft.Crosscheck.check
      ~resume:(Filename.concat (Filename.get_temp_dir_name ()) "soft_no_such_ckpt")
      a b
  in
  check_int "missing resume file starts fresh" 1 (Soft.Crosscheck.count o)

let test_resume_rejects_mismatch () =
  let p = Expr.var ~width:16 "fig1.p" in
  let a = run_toy "agent1" (fun env -> fig1_agent1 env p) in
  let b = run_toy "agent2" (fun env -> fig1_agent2 env p) in
  let file = Filename.temp_file "soft_ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      ignore (Soft.Crosscheck.check ~checkpoint:file a b);
      (* same agent names and test, different groups: the fingerprint in
         the snapshot must refuse the resume *)
      let a' = run_toy "agent1" (fun env -> fig1_agent2 env p) in
      match Soft.Crosscheck.check ~resume:file a' b with
      | _ -> Alcotest.fail "mismatched checkpoint accepted"
      | exception Soft.Crosscheck.Checkpoint_error _ -> ())

(* Same result groups, other conditions: agent1 with its CONTROLLER
   special case moved to another port has the very same three group keys
   and path counts, but the verdicts stored for the original no longer
   hold.  The fingerprint covers the conditions, so the resume is
   refused instead of reporting stale verdicts. *)
let test_resume_rejects_same_keys_other_conditions () =
  let p = Expr.var ~width:16 "fig1.p" in
  let moved env p =
    if Engine.branch_eq env p 0xfffeL then Engine.emit env "CTRL"
    else if Engine.branch env (Expr.ult p (c16 25)) then Engine.emit env "FWD"
    else Engine.emit env "ERR"
  in
  let a = run_toy "agent1" (fun env -> fig1_agent1 env p) in
  let a' = run_toy "agent1" (fun env -> moved env p) in
  let b = run_toy "agent2" (fun env -> fig1_agent2 env p) in
  let keys (g : Soft.Grouping.grouped) =
    List.map (fun (g : Soft.Grouping.group) -> g.Soft.Grouping.g_key) g.Soft.Grouping.gr_groups
  in
  Alcotest.(check (list string)) "same result groups" (keys a) (keys a');
  let file = Filename.temp_file "soft_ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      ignore (Soft.Crosscheck.check ~checkpoint:file a b);
      match Soft.Crosscheck.check ~resume:file a' b with
      | _ -> Alcotest.fail "checkpoint of other conditions accepted"
      | exception Soft.Crosscheck.Checkpoint_error _ -> ())

(* A damaged checkpoint — truncated write or flipped bit — must never
   raise and never resume wrong: the checksum catches it, a warning is
   issued, and the run starts cold with the exact uninterrupted outcome. *)
let check_corrupted_resume msg corrupt =
  let p = Expr.var ~width:16 "fig1.p" in
  let a = run_toy "agent1" (fun env -> fig1_agent1 env p) in
  let b = run_toy "agent2" (fun env -> fig1_agent2 env p) in
  let uninterrupted = Soft.Crosscheck.check a b in
  let file = Filename.temp_file "soft_ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      ignore (Soft.Crosscheck.check ~checkpoint:file a b);
      corrupt file;
      let warnings = ref [] in
      let resumed =
        Soft.Crosscheck.check ~resume:file
          ~on_warning:(fun m -> warnings := m :: !warnings)
          a b
      in
      check_bool (msg ^ ": warning issued") true
        (List.exists (contains ~needle:"integrity") !warnings);
      check_same_outcome (msg ^ ": cold start = uninterrupted") uninterrupted resumed)

let test_resume_truncated_checkpoint () =
  check_corrupted_resume "truncated" (fun file ->
      Unix.truncate file ((Unix.stat file).Unix.st_size / 2))

let test_resume_bitflipped_checkpoint () =
  check_corrupted_resume "bit-flipped" (fun file ->
      let body = In_channel.with_open_bin file In_channel.input_all in
      (* flip a bit in the middle of the payload, away from the header *)
      let i = String.length body / 2 in
      let body = Bytes.of_string body in
      Bytes.set body i (Char.chr (Char.code (Bytes.get body i) lxor 1));
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_bytes oc body))

(* --- checkpoint format: v2 migration, corruption, retired records ------ *)

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

(* strip the trailing [sum ...] line / append a fresh one *)
let body_of content =
  let wo = String.sub content 0 (String.length content - 1) in
  let i = String.rindex wo '\n' in
  String.sub content 0 (i + 1)

let with_sum body = body ^ "sum " ^ Digest.to_hex (Digest.string body) ^ "\n"

let grouped_runs () =
  let spec = Harness.Test_spec.packet_out () in
  let run_a = Harness.Runner.execute ~max_paths:40 Switches.Reference_switch.agent spec in
  let run_b = Harness.Runner.execute ~max_paths:40 Switches.Modified_switch.agent spec in
  (Soft.Grouping.of_run run_a, Soft.Grouping.of_run run_b)

let canon (o : Soft.Crosscheck.outcome) =
  Format.asprintf "%a" Soft.Crosscheck.pp { o with Soft.Crosscheck.o_check_time = 0.0 }

let in_temp f =
  let file = Filename.temp_file "soft_ckpt" ".txt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file) (fun () -> f file)

let test_checkpoint_v2_migration () =
  in_temp (fun file ->
      let a, b = grouped_runs () in
      let full = Soft.Crosscheck.check ~checkpoint:file a b in
      let v3 = read_file file in
      check_bool "fresh snapshots carry the v3 magic" true
        (String.sub v3 0 18 = "soft-checkpoint 3\n");
      (* rewrite the same records as a v2 file: old magic, fresh checksum *)
      let v2_body =
        "soft-checkpoint 2\n" ^ String.sub (body_of v3) 18 (String.length (body_of v3) - 18)
      in
      write_file file (with_sum v2_body);
      let warnings = ref [] in
      let before = (Solver.stats ()).Solver.queries in
      let resumed =
        Soft.Crosscheck.check ~resume:file ~checkpoint:file
          ~on_warning:(fun w -> warnings := w :: !warnings)
          a b
      in
      check_bool "v2 resumes without warnings" true (!warnings = []);
      check_int "a complete v2 snapshot costs no queries" before
        (Solver.stats ()).Solver.queries;
      Alcotest.(check string) "v2 resume reproduces the outcome" (canon full) (canon resumed);
      (* ... and the next snapshot is written in the new format *)
      check_bool "rewrite upgrades the magic to v3" true
        (String.sub (read_file file) 0 18 = "soft-checkpoint 3\n"))

let test_checkpoint_corrupt_v3_cold_start () =
  in_temp (fun file ->
      let a, b = grouped_runs () in
      let full = Soft.Crosscheck.check ~checkpoint:file a b in
      let v3 = read_file file in
      (* flip one body byte: the checksum must catch it *)
      let bad = Bytes.of_string v3 in
      Bytes.set bad (String.length v3 / 2)
        (if Bytes.get bad (String.length v3 / 2) = 'x' then 'y' else 'x');
      write_file file (Bytes.to_string bad);
      let warnings = ref [] in
      let before = (Solver.stats ()).Solver.queries in
      let resumed =
        Soft.Crosscheck.check ~resume:file ~on_warning:(fun w -> warnings := w :: !warnings) a b
      in
      check_int "exactly one degradation warning" 1 (List.length !warnings);
      check_bool "warning names the integrity check" true
        (List.for_all (contains ~needle:"integrity") !warnings);
      check_bool "cold start re-solves" true ((Solver.stats ()).Solver.queries > before);
      Alcotest.(check string) "cold start is only slower, never wrong" (canon full)
        (canon resumed))

(* A [q] record is refused even in an intact, sealed snapshot: the pair
   it names has no verdict a resume could report. *)
let test_checkpoint_q_record_rejected () =
  in_temp (fun file ->
      let a, b = grouped_runs () in
      ignore (Soft.Crosscheck.check ~checkpoint:file a b);
      let replaced = ref false in
      let lines =
        List.map
          (fun l ->
            if (not !replaced) && String.length l > 2 && l.[0] = 'd' && l.[1] = ' ' then begin
              replaced := true;
              "q" ^ String.sub l 1 (String.length l - 1) ^ " hung"
            end
            else l)
          (String.split_on_char '\n' (body_of (read_file file)))
      in
      check_bool "found a decided pair to rewrite" true !replaced;
      write_file file (with_sum (String.concat "\n" lines));
      match Soft.Crosscheck.check ~resume:file a b with
      | _ -> Alcotest.fail "checkpoint with a q record accepted"
      | exception Soft.Crosscheck.Checkpoint_error msg ->
        check_bool "the error names the record" true (contains ~needle:"q " msg))

(* --- crash isolation: engine, runner, pipeline ------------------------ *)

let test_engine_isolates_agent_exception () =
  let x = Expr.var ~width:16 "iso.x" in
  let r =
    Engine.run (fun env ->
        if Engine.branch env (Expr.ult x (c16 100)) then failwith "agent bug"
        else Engine.emit env "fine")
  in
  check_int "both paths recorded" 2 (List.length r.Engine.results);
  check_int "one exception counted" 1 r.Engine.stats.Engine.exceptions;
  check_bool "crash message preserved" true
    (List.exists
       (fun (p : string Engine.path_result) ->
         match p.Engine.crashed with
         | Some msg -> contains ~needle:"agent bug" msg
         | None -> false)
       r.Engine.results)

let test_engine_deadline () =
  let x = Expr.var ~width:16 "ddl.x" in
  let r =
    Engine.run ~deadline_ms:0 (fun env ->
        for i = 0 to 7 do
          ignore (Engine.branch env (Expr.ult x (c16 (100 + i))))
        done;
        Engine.emit env "done")
  in
  check_bool "deadline recorded" true r.Engine.stats.Engine.deadline_hit;
  check_bool "exploration actually cut" true (r.Engine.stats.Engine.path_count <= 1)

(* An agent whose connection setup trips the one exception the engine's
   per-path isolation refuses to swallow: a solver soundness violation.
   It escapes the engine — and [execute_safe] must catch it at the run
   boundary. *)
module Broken_agent = struct
  let name = "broken"

  type state = unit

  let init () = ()
  let connection_setup _env () = raise (Smt.Solver.Solver_error ("injected soundness failure", []))
  let handle_message _env st _ = st
  let advance_time _env st ~seconds:_ = st
  let handle_packet _env st ~probe_id:_ ~in_port:_ _ = st
end

let broken : Switches.Agent_intf.t = (module Broken_agent)

let test_execute_safe_isolates_run () =
  let spec = Harness.Test_spec.packet_out () in
  (match Harness.Runner.execute_safe ~max_paths:10 broken spec with
   | Ok _ -> Alcotest.fail "broken agent must fail"
   | Error f ->
     Alcotest.(check string) "agent recorded" "broken" f.Harness.Runner.f_agent;
     Alcotest.(check string) "test recorded" spec.Harness.Test_spec.id f.Harness.Runner.f_test;
     check_bool "error text preserved" true
       (contains ~needle:"soundness" f.Harness.Runner.f_error));
  match Harness.Runner.execute_safe ~max_paths:10 Switches.Reference_switch.agent spec with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "healthy agent failed: %s" f.Harness.Runner.f_error

let test_suite_survives_crashing_agent () =
  let spec = Harness.Test_spec.packet_out () in
  let s =
    Soft.Pipeline.compare_suite ~max_paths:10 broken Switches.Reference_switch.agent [ spec ]
  in
  check_int "no comparison from the lost run" 0 (List.length s.Soft.Pipeline.sr_comparisons);
  check_int "failure recorded instead" 1 (List.length s.Soft.Pipeline.sr_failures);
  let s' =
    Soft.Pipeline.compare_suite ~max_paths:30 Switches.Reference_switch.agent
      Switches.Reference_switch.agent [ spec ]
  in
  check_int "healthy suite compares" 1 (List.length s'.Soft.Pipeline.sr_comparisons);
  check_int "healthy suite has no failures" 0 (List.length s'.Soft.Pipeline.sr_failures);
  check_int "agent vs itself stays clean" 0
    (Soft.Pipeline.inconsistency_count (List.hd s'.Soft.Pipeline.sr_comparisons))

let suite =
  [
    ("sat budget: conflicts", `Quick, test_sat_budget_conflicts);
    ("sat budget: decisions", `Quick, test_sat_budget_decisions);
    ("sat budget: deadline + reuse", `Quick, test_sat_budget_deadline);
    ("monotonic clock", `Quick, test_mono_clock);
    ("check returns Unknown on exhaustion", `Quick, test_check_unknown);
    ("check honours wall-clock budget", `Quick, test_check_timeout);
    ("Unknown semantics: is_sat/get_model/entails", `Quick, test_unknown_semantics);
    ("Unknown results are never cached", `Quick, test_unknown_not_cached);
    ("default budget applies process-wide", `Quick, test_default_budget);
    ("memo cache is bounded", `Quick, test_cache_bounded);
    ("chunk_conds edges", `Quick, test_chunk_conds);
    ("sat_pair decides plain pairs", `Quick, test_sat_pair_plain);
    ("retry ladder rescues a starved pair", `Quick, test_sat_pair_ladder_rescues);
    ("sat_pair degrades to undecided", `Quick, test_sat_pair_undecided);
    ("check reports undecided pairs", `Quick, test_check_reports_undecided);
    ("check rejects a non-positive split", `Quick, test_check_rejects_bad_split);
    ("pathological pair terminates within budget", `Quick, test_pathological_pair_terminates);
    ("checkpoint/resume equals uninterrupted", `Quick, test_checkpoint_resume_equivalence);
    ("resume: missing file is a fresh start", `Quick, test_resume_missing_file_is_fresh);
    ("resume: mismatched checkpoint rejected", `Quick, test_resume_rejects_mismatch);
    ( "resume: same keys, other conditions rejected",
      `Quick,
      test_resume_rejects_same_keys_other_conditions );
    ("resume: truncated checkpoint heals cold", `Quick, test_resume_truncated_checkpoint);
    ("resume: bit-flipped checkpoint heals cold", `Quick, test_resume_bitflipped_checkpoint);
    ("checkpoint v2 resumes into v3", `Quick, test_checkpoint_v2_migration);
    ("corrupt v3 checkpoint cold-starts", `Quick, test_checkpoint_corrupt_v3_cold_start);
    ("checkpoint with a q record is refused", `Quick, test_checkpoint_q_record_rejected);
    ("engine isolates agent exceptions", `Quick, test_engine_isolates_agent_exception);
    ("engine honours the exploration deadline", `Quick, test_engine_deadline);
    ("execute_safe isolates a crashing run", `Quick, test_execute_safe_isolates_run);
    ("compare_suite survives a crashing agent", `Quick, test_suite_survives_crashing_agent);
  ]
