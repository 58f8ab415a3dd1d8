(* The supervision layer: watchdog deadlines actually kill hung work,
   the retry/backoff ladder, failure taxonomy, the memory-pressure guard,
   the Expr node-limit backstop, the checkpoint v2->v3 migration, the v3
   duplicate-quarantine guard, and the end-to-end contract — chaos hangs under supervision only ever degrade
   pairs to quarantined/undecided, never flip a verdict, and the report
   stays byte-identical across [-j N]. *)

open Smt
module Supervise = Harness.Supervise
module Chaos = Harness.Chaos
module Runner = Harness.Runner
module Test_spec = Harness.Test_spec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_clean_world f =
  Fun.protect
    ~finally:(fun () ->
      Chaos.deactivate ();
      Mono.reset_skew ();
      Expr.set_node_limit None;
      Solver.set_certify false;
      Solver.set_default_budget Solver.no_budget;
      Solver.clear_cache ())
    f

(* --- policy and classification ---------------------------------------- *)

let test_policy_validation () =
  let bad name f =
    match f () with
    | (_ : Supervise.policy) -> Alcotest.fail ("accepted " ^ name)
    | exception Invalid_argument _ -> ()
  in
  bad "zero deadline" (fun () -> Supervise.policy ~deadline_ms:0 ());
  bad "negative retries" (fun () -> Supervise.policy ~max_retries:(-1) ());
  bad "empty ladder" (fun () -> Supervise.policy ~backoff_ms:[] ());
  bad "negative backoff" (fun () -> Supervise.policy ~backoff_ms:[ 5; -1 ] ());
  bad "jitter out of range" (fun () -> Supervise.policy ~jitter:1.5 ());
  bad "zero ceiling" (fun () -> Supervise.policy ~mem_ceiling_mb:0 ());
  let p = Supervise.policy () in
  check_int "default retries" 2 p.Supervise.sp_max_retries

let test_classification () =
  let tax e = fst (Supervise.classify_exn e) in
  check_bool "deadline cancellation is Hung" true
    (tax (Cancel.Cancelled Cancel.Deadline) = Supervise.Hung);
  check_bool "memory cancellation is Oom" true
    (tax (Cancel.Cancelled Cancel.Memory) = Supervise.Oom);
  check_bool "Out_of_memory is Oom" true (tax Out_of_memory = Supervise.Oom);
  check_bool "node limit is Oom" true (tax (Expr.Node_limit 42) = Supervise.Oom);
  check_bool "injected fault is Faulted" true
    (tax (Chaos.Injected_fault "solver") = Supervise.Faulted);
  check_bool "anything else is Crashed" true (tax (Failure "boom") = Supervise.Crashed);
  List.iter
    (fun t ->
      check_bool "taxonomy name round-trips" true
        (Supervise.taxonomy_of_string (Supervise.taxonomy_to_string t) = Some t))
    [ Supervise.Hung; Supervise.Crashed; Supervise.Oom; Supervise.Faulted ];
  check_bool "unknown name rejected" true (Supervise.taxonomy_of_string "wedged" = None)

(* --- the watchdog ------------------------------------------------------ *)

let test_watchdog_kills_hung_task () =
  (* a task that never returns but does poll: the monitor must cancel it
     preemptively, well within 2x the deadline *)
  let deadline_ms = 100 in
  let pol = Supervise.policy ~deadline_ms () in
  Supervise.with_monitor pol (fun sup ->
      let t0 = Unix.gettimeofday () in
      let r = Supervise.run sup (fun () -> while true do Cancel.poll () done) in
      let elapsed_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      (match r with
      | Error (Supervise.Hung, _) -> ()
      | Error (t, m) ->
        Alcotest.fail
          (Printf.sprintf "wrong taxonomy %s: %s" (Supervise.taxonomy_to_string t) m)
      | Ok () -> Alcotest.fail "hung task returned");
      check_bool
        (Printf.sprintf "killed within 2x deadline (%.0fms)" elapsed_ms)
        true
        (elapsed_ms < 2.0 *. float_of_int deadline_ms);
      (* a task that finishes in time is untouched, and its token is gone *)
      (match Supervise.run sup (fun () -> 7) with
      | Ok 7 -> ()
      | _ -> Alcotest.fail "healthy task perturbed");
      check_bool "no token outside supervised extents" true (Cancel.current () = None))

let test_retry_ladder () =
  let pol = Supervise.policy ~max_retries:2 ~backoff_ms:[ 1 ] ~jitter:0.0 () in
  Supervise.with_monitor pol (fun sup ->
      let calls = ref 0 in
      (match
         Supervise.run_retrying sup ~key:42 (fun ~attempt ->
             incr calls;
             if attempt < 2 then failwith "flaky" else "ok")
       with
      | `Done ("ok", 2) -> ()
      | `Done (_, n) -> Alcotest.fail (Printf.sprintf "wrong retry count %d" n)
      | `Quarantine _ -> Alcotest.fail "transient failure quarantined");
      check_int "attempt 0 plus two retries" 3 !calls;
      (* a hopeless task strikes out with the last attempt's classification *)
      let calls = ref 0 in
      (match
         Supervise.run_retrying sup ~key:7 (fun ~attempt:_ ->
             incr calls;
             failwith "always")
       with
      | `Quarantine (Supervise.Crashed, msg, 2) ->
        check_bool "carries the exception text" true
          (String.length msg > 0 && String.sub msg 0 7 = "Failure")
      | `Quarantine (t, _, n) ->
        Alcotest.fail
          (Printf.sprintf "wrong strike-out %s after %d" (Supervise.taxonomy_to_string t) n)
      | `Done _ -> Alcotest.fail "hopeless task succeeded");
      check_int "ladder exhausted after max_retries" 3 !calls)

let test_memory_guard () =
  (* ceiling just above the current heap: the task's allocations cross it,
     the monitor cancels with Memory, and the attempt classifies as Oom *)
  let ceiling = int_of_float (Supervise.heap_mb ()) + 32 in
  let pol = Supervise.policy ~mem_ceiling_mb:ceiling () in
  Supervise.with_monitor pol (fun sup ->
      let r =
        Supervise.run sup (fun () ->
            let keep = ref [] in
            (* 1 MiB blocks go straight to the major heap, paced so the
               monitor's heap samples (updated at GC slice boundaries) keep
               up; the cap keeps a broken guard a failed test, not an OOMed
               runner *)
            for _ = 1 to 512 do
              Cancel.poll ();
              keep := Bytes.create (1024 * 1024) :: !keep;
              Unix.sleepf 0.0005
            done;
            ignore (Sys.opaque_identity !keep))
      in
      (match r with
      | Error (Supervise.Oom, _) -> ()
      | Error (t, m) ->
        Alcotest.fail
          (Printf.sprintf "wrong taxonomy %s: %s" (Supervise.taxonomy_to_string t) m)
      | Ok () -> Alcotest.fail "memory guard never fired");
      check_bool "pressure event counted" true (Supervise.pressure_events sup >= 1))

let test_expr_node_limit () =
  with_clean_world (fun () ->
      let base = Expr.live_nodes () in
      check_bool "hash-cons tables are populated" true (base > 0);
      Expr.set_node_limit (Some (base + 16));
      let x = Expr.var ~width:32 "supervise.nl" in
      (match
         for k = 0 to 999 do
           ignore (Expr.add x (Expr.const ~width:32 (Int64.of_int (0x5ead00 + k))))
         done
       with
      | () -> Alcotest.fail "node limit never enforced"
      | exception Expr.Node_limit n -> check_int "carries the limit" (base + 16) n);
      Expr.set_node_limit None;
      (* the gauge feeds solver stats and merges as a maximum *)
      Solver.capture_expr_stats ();
      let s = Solver.stats () in
      check_bool "expr_nodes gauge captured" true (s.Solver.expr_nodes >= base))

(* --- checkpoint v2 -> v3 migration ------------------------------------ *)

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

(* strip the trailing [sum ...] line / append a fresh one *)
let body_of content =
  let wo = String.sub content 0 (String.length content - 1) in
  let i = String.rindex wo '\n' in
  String.sub content 0 (i + 1)

let with_sum body = body ^ "sum " ^ Digest.to_hex (Digest.string body) ^ "\n"

let grouped_runs () =
  let spec = Test_spec.packet_out () in
  let run_a = Runner.execute ~max_paths:40 Switches.Reference_switch.agent spec in
  let run_b = Runner.execute ~max_paths:40 Switches.Modified_switch.agent spec in
  (Soft.Grouping.of_run run_a, Soft.Grouping.of_run run_b)

let canon (o : Soft.Crosscheck.outcome) =
  Format.asprintf "%a" Soft.Crosscheck.pp { o with Soft.Crosscheck.o_check_time = 0.0 }

let in_temp f =
  let file = Filename.temp_file "soft_supervise_ckpt" ".txt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file) (fun () -> f file)

let test_checkpoint_v2_migration () =
  with_clean_world (fun () ->
      in_temp (fun file ->
          let a, b = grouped_runs () in
          let full = Soft.Crosscheck.check ~checkpoint:file a b in
          let v3 = read_file file in
          check_bool "fresh snapshots carry the v3 magic" true
            (String.sub v3 0 18 = "soft-checkpoint 3\n");
          (* rewrite the same records as a v2 file: old magic, no q lines
             (there are none in a clean run), fresh checksum *)
          let v2_body =
            "soft-checkpoint 2\n"
            ^ String.sub (body_of v3) 18 (String.length (body_of v3) - 18)
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
          Alcotest.(check string) "v2 resume reproduces the outcome" (canon full)
            (canon resumed);
          check_bool "resume starts with an empty quarantine" true
            (resumed.Soft.Crosscheck.o_pairs_quarantined = []);
          (* ... and the next snapshot is written in the new format *)
          let rewritten = read_file file in
          check_bool "rewrite upgrades the magic to v3" true
            (String.sub rewritten 0 18 = "soft-checkpoint 3\n")))

let test_checkpoint_corrupt_v3_cold_start () =
  with_clean_world (fun () ->
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
            Soft.Crosscheck.check ~resume:file
              ~on_warning:(fun w -> warnings := w :: !warnings)
              a b
          in
          check_int "exactly one degradation warning" 1 (List.length !warnings);
          check_bool "warning names the integrity check" true
            (match !warnings with
            | [ w ] -> (
              match String.index_opt w 'i' with
              | Some _ ->
                (* substring search without Str *)
                let needle = "integrity" in
                let n = String.length needle and l = String.length w in
                let rec find i = i + n <= l && (String.sub w i n = needle || find (i + 1)) in
                find 0
              | None -> false)
            | _ -> false);
          check_bool "cold start re-solves" true
            ((Solver.stats ()).Solver.queries > before);
          Alcotest.(check string) "cold start is only slower, never wrong" (canon full)
            (canon resumed)))

let test_checkpoint_quarantine_roundtrip () =
  with_clean_world (fun () ->
      in_temp (fun file ->
          let a, b = grouped_runs () in
          ignore (Soft.Crosscheck.check ~checkpoint:file a b);
          let v3 = read_file file in
          (* turn the first clean pair record into a quarantine record, as a
             supervised run that struck out on that pair would have left it *)
          let lines = String.split_on_char '\n' (body_of v3) in
          let replaced = ref None in
          let lines' =
            List.map
              (fun l ->
                if !replaced = None && String.length l > 2 && l.[0] = 'd' && l.[1] = ' '
                then begin
                  let q = "q" ^ String.sub l 1 (String.length l - 1) ^ " hung" in
                  replaced := Some q;
                  q
                end
                else l)
              lines
          in
          let q_file = with_sum (String.concat "\n" lines') in
          check_bool "found a decided pair to quarantine" true (!replaced <> None);
          write_file file q_file;
          let before = (Solver.stats ()).Solver.queries in
          let resumed = Soft.Crosscheck.check ~resume:file ~checkpoint:file a b in
          (* the poison pair was skipped, not re-solved, and is reported
             with its taxonomy *)
          check_int "resume re-solves nothing" before (Solver.stats ()).Solver.queries;
          check_int "one quarantined pair" 1 (Soft.Crosscheck.quarantined_count resumed);
          (match resumed.Soft.Crosscheck.o_pairs_quarantined with
          | [ (_, _, tax) ] -> check_bool "taxonomy survives" true (tax = Supervise.Hung)
          | _ -> Alcotest.fail "quarantine list malformed");
          check_bool "quarantined implies undecided" true
            (Soft.Crosscheck.undecided_count resumed >= 1);
          (* this matrix has real inconsistencies, and a confirmed divergence
             outranks being degraded in the exit taxonomy *)
          check_int "confirmed divergences outrank degraded" 1
            (Soft.Report.exit_status resumed);
          (* the rewritten snapshot is byte-identical: quarantine records
             survive write/read/rewrite exactly *)
          Alcotest.(check string) "quarantine round-trips byte-identically" q_file
            (read_file file)))

(* --- checkpoint v3: duplicate / contradictory quarantine records ------- *)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

let in_tmpdir f =
  let dir = Filename.temp_file "soft_supervise" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let test_checkpoint_dup_quarantine () =
  with_clean_world (fun () ->
      in_tmpdir (fun dir ->
          let file = Filename.concat dir "ckpt" in
          let spec = Harness.Test_spec.packet_out () in
          let a =
            Soft.Grouping.of_run
              (Harness.Runner.execute ~max_paths:40 Switches.Reference_switch.agent spec)
          in
          let b =
            Soft.Grouping.of_run
              (Harness.Runner.execute ~max_paths:40 Switches.Modified_switch.agent spec)
          in
          ignore (Soft.Crosscheck.check ~checkpoint:file a b);
          let lines = String.split_on_char '\n' (body_of (read_file file)) in
          (* take the first two decided pairs: turn the second into a
             quarantine, then append colliding records for both *)
          let decided =
            List.filter
              (fun l -> String.length l > 2 && l.[0] = 'd' && l.[1] = ' ')
              lines
          in
          let d1 = List.nth decided 0 and d2 = List.nth decided 1 in
          let q_of d tax = "q" ^ String.sub d 1 (String.length d - 1) ^ " " ^ tax in
          let lines' =
            List.concat_map (fun l -> if l = d2 then [ q_of d2 "hung" ] else [ l ]) lines
          in
          (* drop the trailing "" so appended records stay in the body *)
          let lines' = List.filter (fun l -> l <> "") lines' in
          let doctored =
            lines'
            @ [
                q_of d1 "crashed" (* contradicts d1's clean verdict *);
                q_of d2 "crashed" (* contradicts the hung quarantine *);
                q_of d2 "hung" (* exact duplicate *);
              ]
          in
          write_file file (with_sum (String.concat "\n" doctored ^ "\n"));
          let warnings = ref [] in
          let resumed =
            Soft.Crosscheck.check ~resume:file
              ~on_warning:(fun w -> warnings := w :: !warnings)
              a b
          in
          check_int "each collision warned" 3 (List.length !warnings);
          check_bool "warnings name the quarantine collision" true
            (List.for_all
               (fun w ->
                 let has needle =
                   let n = String.length needle and l = String.length w in
                   let rec find i = i + n <= l && (String.sub w i n = needle || find (i + 1)) in
                   find 0
                 in
                 has "quarantine" && has "keeping the first")
               !warnings);
          (* first-wins: d1 stays decided, d2 keeps the hung taxonomy *)
          check_int "only the one real quarantine survives" 1
            (Soft.Crosscheck.quarantined_count resumed);
          match resumed.Soft.Crosscheck.o_pairs_quarantined with
          | [ (_, _, tax) ] -> check_bool "first taxonomy wins" true (tax = Supervise.Hung)
          | _ -> Alcotest.fail "quarantine list malformed"))

(* --- end to end: chaos hangs under the watchdog ------------------------ *)

let test_supervised_hang_degrades_not_hangs () =
  (* rate-1.0 hangs: every solve stalls until the watchdog kills it, every
     pair quarantines as hung, the run completes degraded — bounded by
     pairs x deadline, not forever *)
  with_clean_world (fun () ->
      let a, b = grouped_runs () in
      let pol =
        Supervise.policy ~deadline_ms:60 ~max_retries:0 ~backoff_ms:[ 1 ] ()
      in
      Chaos.install (Chaos.plan ~seed:3 ~rate:1.0 ());
      let warnings = ref 0 in
      let o =
        Soft.Crosscheck.check ~supervise:pol ~on_warning:(fun _ -> incr warnings) a b
      in
      Chaos.deactivate ();
      check_bool "pairs were attempted" true (o.Soft.Crosscheck.o_pairs_checked > 0);
      let quarantined = Soft.Crosscheck.quarantined_count o in
      (* pairs the cheap pipeline (const eval, interval prefilter) decides
         never reach the SAT core, so the hang hook never fires for them;
         everything that did need the core must have struck out *)
      check_bool "most pairs quarantined" true
        (quarantined > o.Soft.Crosscheck.o_pairs_checked / 2);
      check_int "nothing undecided except by quarantine" quarantined
        (Soft.Crosscheck.undecided_count o);
      check_bool "no verdict can have come from a hung core" true
        (o.Soft.Crosscheck.o_inconsistencies = []);
      List.iter
        (fun (_, _, tax) -> check_bool "all hung" true (tax = Supervise.Hung))
        o.Soft.Crosscheck.o_pairs_quarantined;
      check_bool "quarantine warnings surfaced" true (!warnings >= quarantined);
      check_int "degraded exit, not a hang or a crash" 3 (Soft.Report.exit_status o))

let test_chaos_hang_sweep_invariant () =
  (* the 8-seed soundness sweep with the hang point live: chaos under
     supervision may only grow undecided/quarantine — never flip or invent
     a verdict *)
  with_clean_world (fun () ->
      let a, b = grouped_runs () in
      Solver.clear_cache ();
      let baseline = Soft.Crosscheck.check a b in
      let inc_keys (o : Soft.Crosscheck.outcome) =
        List.map
          (fun (i : Soft.Crosscheck.inconsistency) ->
            ( Openflow.Trace.result_key i.Soft.Crosscheck.i_result_a,
              Openflow.Trace.result_key i.i_result_b ))
          o.Soft.Crosscheck.o_inconsistencies
      in
      let base_incs = inc_keys baseline in
      let pol =
        Supervise.policy ~deadline_ms:50 ~max_retries:1 ~backoff_ms:[ 1 ] ()
      in
      for seed = 1 to 8 do
        Solver.clear_cache ();
        Mono.reset_skew ();
        Chaos.install (Chaos.plan ~seed ~rate:0.15 ());
        let o = Soft.Crosscheck.check ~supervise:pol a b in
        Chaos.deactivate ();
        let msg s = Printf.sprintf "seed %d: %s" seed s in
        check_int (msg "same pairs compared") baseline.Soft.Crosscheck.o_pairs_checked
          o.Soft.Crosscheck.o_pairs_checked;
        List.iter
          (fun k -> check_bool (msg "no invented inconsistencies") true (List.mem k base_incs))
          (inc_keys o);
        List.iter
          (fun k ->
            if not (List.mem k (inc_keys o)) then
              check_bool (msg "lost verdicts became undecided") true
                (List.mem k o.Soft.Crosscheck.o_pairs_undecided))
          base_incs;
        check_bool (msg "quarantine bounded by undecided") true
          (Soft.Crosscheck.quarantined_count o <= Soft.Crosscheck.undecided_count o)
      done)

let test_supervised_jobs_report_identical () =
  (* supervision enabled but nothing tripping: the report must stay
     byte-identical to the unsupervised one, at any -j *)
  with_clean_world (fun () ->
      let a, b = grouped_runs () in
      Solver.clear_cache ();
      let plain = Soft.Crosscheck.check ~jobs:1 a b in
      let pol = Supervise.policy ~deadline_ms:60_000 ~max_retries:1 () in
      Solver.clear_cache ();
      let s1 = Soft.Crosscheck.check ~jobs:1 ~supervise:pol a b in
      Solver.clear_cache ();
      let s4 = Soft.Crosscheck.check ~jobs:4 ~supervise:pol a b in
      Alcotest.(check string) "supervised -j1 equals unsupervised" (canon plain) (canon s1);
      Alcotest.(check string) "supervised -j4 equals -j1" (canon s1) (canon s4);
      check_int "no quarantine on a healthy run" 0 (Soft.Crosscheck.quarantined_count s4);
      check_int "no retries on a healthy run" 0 s4.Soft.Crosscheck.o_retries)

let suite =
  [
    ("policy validation", `Quick, test_policy_validation);
    ("failure taxonomy classification", `Quick, test_classification);
    ("watchdog kills a hung task within 2x deadline", `Quick, test_watchdog_kills_hung_task);
    ("retry ladder and strike-out", `Quick, test_retry_ladder);
    ("memory guard degrades to Oom", `Quick, test_memory_guard);
    ("Expr node limit backstop", `Quick, test_expr_node_limit);
    ("checkpoint v2 resumes into v3", `Quick, test_checkpoint_v2_migration);
    ("corrupt v3 checkpoint cold-starts", `Quick, test_checkpoint_corrupt_v3_cold_start);
    ("quarantine round-trips through the checkpoint", `Quick, test_checkpoint_quarantine_roundtrip);
    ("checkpoint duplicate quarantine", `Slow, test_checkpoint_dup_quarantine);
    ("rate-1.0 hangs degrade, never hang the run", `Quick, test_supervised_hang_degrades_not_hangs);
    ("8-seed chaos-hang sweep invariant", `Quick, test_chaos_hang_sweep_invariant);
    ("supervised report byte-identical across -j", `Quick, test_supervised_jobs_report_identical);
  ]
