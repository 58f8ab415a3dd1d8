(* SOFT's inconsistency finder (paper §3.4, §4.2): given two agents'
   grouped results, consider every pair of *different* results, and ask the
   solver whether some common input reaches both — i.e. whether
   C_A(i) ∧ C_B(j) is satisfiable.  Each satisfiable pair is an
   inconsistency, and the solver's model is a concrete witness input.

   Every differing pair is one frontend query (|RES_A| · |RES_B| minus
   the equal pairs, which grouping has already reduced by orders of
   magnitude relative to raw path counts), but far fewer reach the SAT
   core: the fast path decides a whole row's surviving pairs with one
   all-SAT query, at the price of one solve per model found plus one
   final Unsat.

   This stage is the fragile part of SOFT — the paper's own STP blew up on
   the Open vSwitch FlowMod disjunctions (§5.2, Table 3).  Three defences
   live here:
   - per-query solver budgets, so a pathological pair costs bounded time;
   - a chunk-split retry ladder: when the monolithic disjunction pair comes
     back [Unknown], it is re-checked as pairs of ever smaller disjunction
     chunks (the paper's proposed future-work remedy) before the pair is
     finally recorded as *undecided* rather than silently dropped;
   - periodic checkpoints, so a killed multi-hour crosscheck resumes where
     it left off instead of starting over.

   And one amortization: every C_B(j) is blasted once per check, under a
   selector, into a frozen {!Smt.Session.template}.  Each row restores a
   recycled per-domain instance from it, asserts C_A(i) and asks for
   "some selector" until Unsat ({!Session.all_sat}).  That is the fast
   path, at every budget and every [-j].  Under a chaos plan or
   supervision, whose fault streams are defined per pair, the pairs of a
   restored row are solved one at a time ({!Session.pair}).  The per-pair
   scratch loop ([~incremental:false]) is the reference both are tested
   against, and also serves certify mode, [?split] and budget Unknowns.
   Reports are byte-identical either way (see [session.ml]).

   [check] runs in four stages: classify (row-major pair collection),
   solve (one pool task per block), record (serialized on the calling
   domain) and emit (row-major report assembly). *)

open Smt
module Trace = Openflow.Trace
module Chaos = Harness.Chaos
module Pool = Harness.Pool
module Supervise = Harness.Supervise

type inconsistency = {
  i_result_a : Trace.result;
  i_result_b : Trace.result;
  i_witness : Model.t; (* concrete input values exhibiting the divergence *)
  i_cond : Expr.boolean; (* the satisfiable conjunction *)
  i_paths_a : int;
  i_paths_b : int;
}

type outcome = {
  o_agent_a : string;
  o_agent_b : string;
  o_test : string;
  o_inconsistencies : inconsistency list;
  o_pairs_checked : int;
  o_pairs_equal : int; (* pairs skipped because the results were identical *)
  o_pairs_undecided : (string * string) list;
  (* result-key pairs on which every budgeted attempt, including the full
     retry ladder, came back Unknown — "gave up", not "no inconsistency" *)
  o_pair_faults : int;
  (* pairs lost to a fault (solver soundness error or injected fault)
     rather than an honest Unknown; they are counted in
     [o_pairs_undecided] too, and left out of checkpoints so a resumed
     run retries them *)
  o_pairs_quarantined : (string * string * Supervise.taxonomy) list;
  (* pairs the supervision layer gave up on after the full retry ladder,
     with the last strike's failure taxonomy.  Counted in
     [o_pairs_undecided] too, and — unlike transient faults — persisted
     in the checkpoint, so a resume skips known-poison pairs instead of
     re-dying on them *)
  o_retries : int;
  (* supervised attempts beyond each pair's first, summed over the run *)
  o_check_time : float; (* seconds in the intersection stage (Table 3) *)
}

(* Split a group's disjuncts into chunks of at most [n] path conditions.
   SAT(A ∧ B) iff some chunk pair is satisfiable, so checking chunk pairs
   with an early exit trades more (but much smaller) queries for the one
   monolithic conjunction — the paper's proposed remedy for the solver
   blow-up on CS FlowMods (§5.2, future work). *)
let chunk_conds n conds =
  if n <= 0 then invalid_arg "Crosscheck.chunk_conds: chunk size must be positive";
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else Expr.balanced_disj (List.rev cur) :: acc)
    | c :: rest ->
      if k = n then go (Expr.balanced_disj (List.rev cur) :: acc) [ c ] 1 rest
      else go acc (c :: cur) (k + 1) rest
  in
  go [] [] 0 conds

type pair_verdict = Pair_sat of Model.t | Pair_unsat | Pair_undecided

(* Check every chunk pair: any SAT ends the search with a witness; all
   UNSAT proves the pair clean; an Unknown with no SAT anywhere leaves the
   pair undecided. *)
let check_chunks ?budget chunks_a chunks_b =
  let unknown = ref false in
  let rec pairs = function
    | [] -> if !unknown then Pair_undecided else Pair_unsat
    | ca :: rest_a ->
      let rec inner = function
        | [] -> pairs rest_a
        | cb :: rest_b -> (
          match Solver.check ?budget [ ca; cb ] with
          | Solver.Sat witness -> Pair_sat witness
          | Solver.Unsat -> inner rest_b
          | Solver.Unknown _ ->
            unknown := true;
            inner rest_b)
      in
      inner chunks_b
  in
  pairs chunks_a

(* Chunk sizes tried, in order, after a budgeted attempt comes back
   Unknown: split the disjunctions ever finer before giving up. *)
let default_retry_ladder = [ 16; 4; 1 ]

let sat_pair ?split ?budget ?(retry = default_retry_ladder) (ga : Grouping.group)
    (gb : Grouping.group) =
  let members_a = ga.Grouping.g_member_conds and members_b = gb.Grouping.g_member_conds in
  let attempt = function
    | None -> check_chunks ?budget [ ga.Grouping.g_cond ] [ gb.Grouping.g_cond ]
    | Some n -> check_chunks ?budget (chunk_conds n members_a) (chunk_conds n members_b)
  in
  let chunk_count = function
    | None -> 1
    | Some n -> ((List.length members_a + n - 1) / n) + ((List.length members_b + n - 1) / n)
  in
  let rec go current rungs =
    match attempt current with
    | (Pair_sat _ | Pair_unsat) as v -> v
    | Pair_undecided -> (
      (* escalate down the ladder, skipping rungs that would re-issue the
         exact same chunking (e.g. singleton groups) *)
      match rungs with
      | [] -> Pair_undecided
      | n :: rest ->
        let finer =
          n >= 1
          && (match current with None -> true | Some c -> n < c)
          && chunk_count (Some n) > chunk_count current
        in
        if finer then go (Some n) rest else go current rest)
  in
  go split retry

(* --- checkpointing --------------------------------------------------- *)

exception Checkpoint_error of string

(* What a finished pair contributed, keyed by (index_a, index_b); this is
   both the in-memory resume state and the on-disk record. *)
type pair_outcome =
  | P_clean
  | P_undecided
  | P_inc of (Expr.var * int64) list (* witness bindings *)
  | P_quarantined of Supervise.taxonomy
      (* supervision exhausted the retry ladder on this pair; a resume
         skips it instead of re-dying on it *)

(* The checkpoint ties itself to the exact grouped inputs via a digest of
   every group's result key, path count and serialized condition, so
   resuming against different runs is refused instead of silently
   producing garbage — also runs with the same result groups but other
   conditions (a deeper exploration of the same agent), whose stored
   verdicts would be stale. *)
let fingerprint (ga : Grouping.group array) (gb : Grouping.group array) =
  let buf = Buffer.create 65536 in
  let side groups =
    Array.iter
      (fun (g : Grouping.group) ->
        Printf.bprintf buf "%s\x00%d\x00%s\x00" g.Grouping.g_key g.Grouping.g_path_count
          (Serial.bool_to_string g.Grouping.g_cond))
      groups
  in
  side ga;
  Buffer.add_char buf '\x01';
  side gb;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let write_checkpoint path ~test ~agent_a ~agent_b ~fp (decided : (int * int, pair_outcome) Hashtbl.t) =
  (* the snapshot is built in memory so a whole-file checksum can be
     appended: the trailing [sum <md5>] line covers every preceding byte,
     letting the reader detect truncation and bit flips — not just the
     malformed lines the parser happens to notice *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "soft-checkpoint 3\n";
  Printf.bprintf buf "test %s\n" test;
  Printf.bprintf buf "agent-a %s\n" agent_a;
  Printf.bprintf buf "agent-b %s\n" agent_b;
  Printf.bprintf buf "fingerprint %s\n" fp;
  (* records are emitted sorted by (i, j), not in hash order: the file for
     a given decided-set is then one exact byte string — identical across
     [-j N], across write/read/rewrite round trips, and across resumes *)
  let records =
    List.sort compare (Hashtbl.fold (fun ij o acc -> (ij, o) :: acc) decided [])
  in
  List.iter
    (fun ((i, j), outcome) ->
      match outcome with
      | P_clean -> Printf.bprintf buf "d %d %d\n" i j
      | P_undecided -> Printf.bprintf buf "u %d %d\n" i j
      | P_quarantined tax ->
        Printf.bprintf buf "q %d %d %s\n" i j (Supervise.taxonomy_to_string tax)
      | P_inc bindings ->
        Printf.bprintf buf "i %d %d\n" i j;
        List.iter
          (fun (v, value) ->
            Printf.bprintf buf "w %d %Lx |%s|\n" (Expr.var_width v) value (Expr.var_name v))
          bindings)
    records;
  let body = Buffer.contents buf in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc body;
      Printf.fprintf oc "sum %s\n" (Digest.to_hex (Digest.string body)));
  (* atomic replace: a kill mid-write never corrupts the previous snapshot *)
  Sys.rename tmp path;
  (* fault injection may cut the freshly written file down mid-file; the
     checksum above is what turns that into a detected cold start *)
  Chaos.maybe_truncate_file path

(* Split off and verify the trailing [sum <md5>] line.  [None] means the
   snapshot cannot be trusted (truncated, bit-flipped, or pre-checksum
   format); [Some body] is the verified payload. *)
let verified_body content =
  let len = String.length content in
  if len = 0 || content.[len - 1] <> '\n' then None
  else
    let wo_nl = String.sub content 0 (len - 1) in
    match String.rindex_opt wo_nl '\n' with
    | None -> None
    | Some i ->
      let last = String.sub wo_nl (i + 1) (String.length wo_nl - i - 1) in
      if String.length last > 4 && String.sub last 0 4 = "sum " then begin
        let body = String.sub content 0 (i + 1) in
        let sum = String.sub last 4 (String.length last - 4) in
        if String.lowercase_ascii sum = Digest.to_hex (Digest.string body) then Some body
        else None
      end
      else None

let read_checkpoint path ~test ~agent_a ~agent_b ~fp ~on_warning =
  let decided : (int * int, pair_outcome) Hashtbl.t = Hashtbl.create 256 in
  if not (Sys.file_exists path) then decided (* fresh start *)
  else begin
    let content = In_channel.with_open_bin path In_channel.input_all in
    match verified_body content with
    | None ->
      (* a corrupt snapshot degrades to a cold start: slower, never wrong.
         Only an *intact* file that belongs to different runs is an error
         (below) — that one the caller must not silently ignore. *)
      on_warning
        (Printf.sprintf
           "checkpoint %s failed its integrity check (truncated or corrupted); starting cold"
           path);
      decided
    | Some body ->
        let fail msg = raise (Checkpoint_error (path ^ ": " ^ msg)) in
        let lines = ref (String.split_on_char '\n' body) in
        let line () =
          match !lines with
          | [] | [ "" ] -> None
          | l :: rest ->
            lines := rest;
            Some l
        in
        let expect_kv key expected =
          match line () with
          | Some l when l = key ^ " " ^ expected -> ()
          | Some l -> fail (Printf.sprintf "expected '%s %s', got '%s'" key expected l)
          | None -> fail "truncated header"
        in
        (* v2 is read transparently: same body grammar minus quarantine
           lines, so a v2 resume simply starts with an empty quarantine.
           The next snapshot is written as v3. *)
        (match line () with
         | Some "soft-checkpoint 2" | Some "soft-checkpoint 3" -> ()
         | _ -> fail "bad magic");
        expect_kv "test" test;
        expect_kv "agent-a" agent_a;
        expect_kv "agent-b" agent_b;
        expect_kv "fingerprint" fp;
        let parse_ij l =
          match String.split_on_char ' ' l with
          | [ _; i; j ] -> (
            match (int_of_string_opt i, int_of_string_opt j) with
            | Some i, Some j -> (i, j)
            | _ -> fail ("bad pair indices: " ^ l))
          | _ -> fail ("bad pair line: " ^ l)
        in
        let parse_w l =
          (* w WIDTH HEX |name| — the name is last and |-quoted, so it may
             contain spaces *)
          match String.index_opt l '|' with
          | None -> fail ("bad witness line: " ^ l)
          | Some bar ->
            if String.length l < bar + 2 || l.[String.length l - 1] <> '|' then
              fail ("bad witness name: " ^ l);
            let name = String.sub l (bar + 1) (String.length l - bar - 2) in
            let head = String.trim (String.sub l 0 bar) in
            (match String.split_on_char ' ' head with
             | [ _; w; hex ] -> (
               match
                 (int_of_string_opt w, Int64.of_string_opt ("0x" ^ hex))
               with
               | Some w, Some value -> (Expr.make_var name w, value)
               | _ -> fail ("bad witness binding: " ^ l))
             | _ -> fail ("bad witness line: " ^ l))
        in
        (* Record a pair outcome, policing quarantine collisions.  A
           well-formed snapshot mentions each pair at most once; writers
           that crash between retry attempts have however produced files
           with a duplicate — or worse, contradictory — [q] record for the
           same pair.  Taking the last silently would let a later record
           overwrite a real verdict with a quarantine (or vice versa), so
           any collision involving a quarantine keeps the FIRST record and
           warns.  First-wins matches the append order of the writer: the
           earliest record reflects the state actually reached. *)
        let record ij outcome =
          match Hashtbl.find_opt decided ij with
          | None -> Hashtbl.replace decided ij outcome
          | Some prev ->
            let involves_quarantine =
              match (prev, outcome) with
              | P_quarantined _, _ | _, P_quarantined _ -> true
              | _ -> false
            in
            if involves_quarantine then
              on_warning
                (Printf.sprintf
                   "checkpoint %s: %s record for pair (%d,%d); keeping the first"
                   path
                   (match (prev, outcome) with
                    | P_quarantined a, P_quarantined b when a = b ->
                      "duplicate quarantine"
                    | _ -> "contradictory quarantine")
                   (fst ij) (snd ij))
            else Hashtbl.replace decided ij outcome
        in
        let cur_inc = ref None in
        let flush () =
          match !cur_inc with
          | Some (ij, bindings) ->
            record ij (P_inc (List.rev bindings));
            cur_inc := None
          | None -> ()
        in
        let rec go () =
          match line () with
          | None -> flush ()
          | Some "" -> go ()
          | Some l when String.length l >= 2 && l.[0] = 'd' && l.[1] = ' ' ->
            flush ();
            record (parse_ij l) P_clean;
            go ()
          | Some l when String.length l >= 2 && l.[0] = 'u' && l.[1] = ' ' ->
            flush ();
            record (parse_ij l) P_undecided;
            go ()
          | Some l when String.length l >= 2 && l.[0] = 'q' && l.[1] = ' ' ->
            flush ();
            (match String.split_on_char ' ' l with
             | [ _; i; j; tax ] -> (
               match
                 ( int_of_string_opt i,
                   int_of_string_opt j,
                   Supervise.taxonomy_of_string tax )
               with
               | Some i, Some j, Some tax -> record (i, j) (P_quarantined tax)
               | _ -> fail ("bad quarantine line: " ^ l))
             | _ -> fail ("bad quarantine line: " ^ l));
            go ()
          | Some l when String.length l >= 2 && l.[0] = 'i' && l.[1] = ' ' ->
            flush ();
            cur_inc := Some (parse_ij l, []);
            go ()
          | Some l when String.length l >= 2 && l.[0] = 'w' && l.[1] = ' ' -> (
            match !cur_inc with
            | None -> fail ("witness line outside an inconsistency: " ^ l)
            | Some (ij, bindings) ->
              cur_inc := Some (ij, parse_w l :: bindings);
              go ())
          | Some l -> fail ("unexpected line: " ^ l)
        in
        go ();
        decided
  end

(* --- the crosscheck loop --------------------------------------------- *)

let default_warning msg = Printf.eprintf "soft: warning: %s\n%!" msg

(* What one pair's solve attempt chain ultimately produced.  [F_fault] is
   the unsupervised transient degradation (not checkpointed; a resume
   retries the pair); [F_quarantine] is supervision's terminal strike-out
   (checkpointed; a resume skips the pair). *)
type pair_fate =
  | F_ok of pair_verdict
  | F_fault
  | F_quarantine of Supervise.taxonomy * string

(* Hooks carrying the caller's solver context across a {!Pool.run}: each
   fresh worker domain starts with a default [Solver] context, so
   [worker_init] replays the caller's config (budget, certify regime,
   cache capacity) into it, and [worker_exit] folds the worker's counters
   back into the caller's stats record.  Workers may exit concurrently,
   hence the merge lock. *)
let solver_pool_hooks () =
  let cfg = Solver.snapshot_config () in
  let caller_stats = Solver.stats () in
  let merge_lock = Mutex.create () in
  let worker_init () = Solver.apply_config cfg in
  let worker_exit () =
    (* snapshot the global hash-cons gauge before folding: merge takes the
       max, so the caller's record ends up with the largest table size any
       worker observed — interning growth stays visible at any [-j N] *)
    Solver.capture_expr_stats ();
    let mine = Solver.stats () in
    Mutex.protect merge_lock (fun () -> Solver.merge_stats ~into:caller_stats mine)
  in
  (worker_init, worker_exit)

let mk_inc (ga : Grouping.group) (gb : Grouping.group) witness =
  {
    i_result_a = ga.Grouping.g_result;
    i_result_b = gb.Grouping.g_result;
    i_witness = witness;
    i_cond = Expr.and_ ga.Grouping.g_cond gb.Grouping.g_cond;
    i_paths_a = ga.Grouping.g_path_count;
    i_paths_b = gb.Grouping.g_path_count;
  }

(* Stage 1 — classify, row-major, on the caller's domain: count equal
   and differing pairs, and collect the differing pairs the resume
   snapshot has not decided yet, grouped into rows [(i, js)] with rows
   and the js inside each ascending.  Rows are the unit the solve stage
   schedules, and the fixed order makes [-j 1] execution a plain
   sequential loop. *)
let classify groups_a groups_b decided =
  let checked = ref 0 and equal = ref 0 and rows = ref [] in
  Array.iteri
    (fun i (ga : Grouping.group) ->
      let js = ref [] in
      Array.iteri
        (fun j (gb : Grouping.group) ->
          if ga.Grouping.g_key = gb.Grouping.g_key then incr equal
          else begin
            incr checked;
            if not (Hashtbl.mem decided (i, j)) then js := j :: !js
          end)
        groups_b;
      if !js <> [] then rows := (i, List.rev !js) :: !rows)
    groups_a;
  (!checked, !equal, Array.of_list (List.rev !rows))

(* Fault injection delivers solver faults and clock jumps only inside a
   per-pair scope, keyed by the pair's matrix index so the fault pattern
   is the same at every [-j]; a fault (injected or a genuine solver
   soundness error) costs the pair its verdict, never the run or a wrong
   answer. *)
let guard_pair ~key f =
  match Chaos.with_solver_faults ~key f with
  | v -> F_ok v
  | exception (Solver.Solver_error _ | Chaos.Injected_fault _) -> F_fault

(* Stage 2 — solve.  B's conditions are blasted once into a template on
   the calling domain, before the pool runs; rows are cut into at most
   [block_count] contiguous blocks (a constant, never derived from [-j]),
   each one pool task.  The solve stage has two shapes:
   - all-SAT (the fast path): every pair still runs the solver's front
     half ({!Solver.front}: constant folding, exact memo, interval
     filter); the survivors of a row are decided together on a row
     restored from the template by one {!Session.all_sat} query, which
     costs one solve per model found plus a final Unsat instead of one
     solve per pair.  A budget Unknown decides the rest of the row pair
     by pair on the same row, and a pair still Unknown goes down the
     scratch ladder.
   - per pair: each pair gets its own attempt.  This is the shape under a
     chaos plan or supervision, whose fault streams, draw table and
     explore corpus are all defined per pair.  A restored row decides
     each pair by one assumption solve ({!Session.pair}), and
     [~incremental:false], [?split] and certify mode use {!sat_pair} on
     fresh instances (the reference path; an assumption-failure Unsat has
     no replayable DRUP proof).
   Every row starts from a clean copy of the template, so verdicts —
   budgeted Unknowns included — do not depend on how tasks were
   scheduled. *)
let block_count = 16

let blocks rows =
  let n = Array.length rows in
  let size = max 1 ((n + block_count - 1) / block_count) in
  Array.init ((n + size - 1) / size) (fun b ->
      Array.sub rows (b * size) (min size (n - (b * size))))

let fallback () =
  let st = Solver.stats () in
  st.Solver.scratch_fallbacks <- st.Solver.scratch_fallbacks + 1

(* One row on the template.  A soundness error costs the row's pairs
   their verdicts (degraded to faulted), never the run. *)
let all_sat_row t ?budget ?retry groups_a groups_b (i, js) =
  let ga = groups_a.(i) in
  let verdict j = function
    | Solver.Sat witness -> Pair_sat witness
    | Solver.Unsat -> Pair_unsat
    | Solver.Unknown _ ->
      fallback ();
      sat_pair ?budget ?retry ga groups_b.(j)
  in
  match
    let fronts =
      List.map (fun j -> (j, Solver.front [ ga.Grouping.g_cond; groups_b.(j).Grouping.g_cond ])) js
    in
    let pending =
      List.filter_map (function j, Solver.Pending p -> Some (j, p) | _, Solver.Decided _ -> None) fronts
    in
    let answers =
      Session.all_sat ?budget t ga.Grouping.g_cond
        (List.map (fun (j, p) -> (groups_b.(j).Grouping.g_cond, p)) pending)
    in
    (* answers come in [pending] order: take them as [fronts] reaches each
       pending pair *)
    match
      List.fold_left_map
        (fun answers (j, f) ->
          let r, answers =
            match (f, answers) with
            | Solver.Decided r, _ -> (r, answers)
            | Solver.Pending _, r :: rest -> (r, rest)
            | Solver.Pending _, [] -> invalid_arg "Crosscheck.all_sat_row: answer missing"
          in
          (answers, ((i, j), (F_ok (verdict j r), 0))))
        answers fronts
    with
    | [], row -> row
    | _ :: _, _ -> invalid_arg "Crosscheck.all_sat_row: surplus answers"
  with
  | row -> row
  | exception Solver.Solver_error _ -> List.map (fun j -> ((i, j), (F_fault, 0))) js

(* One row, pair by pair.  Without supervision ([sup = None]) every pair
   gets one guarded attempt.  With it, each attempt runs under a watchdog
   token and the retry/backoff/quarantine ladder; retries leave the row
   and rerun from scratch, and a watchdog kill of the row's own restore
   and blast sends the whole row down the scratch path instead of
   killing it. *)
let per_pair_row ~sup ~template ?split ?budget ?retry ~pair_key groups_a groups_b (i, js) =
  let ga = groups_a.(i) in
  let scratch j = sat_pair ?split ?budget ?retry ga groups_b.(j) in
  let row =
    Option.bind template (fun t ->
        let open_row () = Session.row t ga.Grouping.g_cond in
        match sup with
        | None -> Some (open_row ())
        | Some sup -> Result.to_option (Supervise.run sup open_row))
  in
  let first_attempt j =
    match row with
    | None -> scratch j
    | Some r -> (
      match Session.pair ?budget r groups_b.(j).Grouping.g_cond with
      | Solver.Sat witness -> Pair_sat witness
      | Solver.Unsat -> Pair_unsat
      | Solver.Unknown _ ->
        fallback ();
        scratch j)
  in
  List.map
    (fun j ->
      let key = pair_key (i, j) in
      match sup with
      | None -> ((i, j), (guard_pair ~key (fun () -> first_attempt j), 0))
      | Some sup -> (
        let attempt ~attempt =
          Chaos.with_solver_faults ~key (fun () ->
              if attempt = 0 then first_attempt j else scratch j)
        in
        match Supervise.run_retrying sup ~key attempt with
        | `Done (v, retries) -> ((i, j), (F_ok v, retries))
        | `Quarantine (tax, msg, retries) -> ((i, j), (F_quarantine (tax, msg), retries))))
    js

(* One block task; pure apart from solver state local to the calling
   domain, so it may run on any pool worker. *)
let solve_block ~sup ~template ~all_sat ?split ?budget ?retry ~pair_key groups_a groups_b
    block =
  let rows = Array.to_list block in
  match template with
  | Some t when all_sat -> List.concat_map (all_sat_row t ?budget ?retry groups_a groups_b) rows
  | _ ->
    List.concat_map
      (per_pair_row ~sup ~template ?split ?budget ?retry ~pair_key groups_a groups_b)
      rows

(* Stage 4 — emit, row-major again: the reported lists depend only on the
   per-pair verdicts, never on completion order, so the report is the
   same whatever [jobs] was. *)
let emit groups_a groups_b decided faulted =
  let found = ref [] and undecided = ref [] and quarantined = ref [] in
  Array.iteri
    (fun i (ga : Grouping.group) ->
      Array.iteri
        (fun j (gb : Grouping.group) ->
          let keys = (ga.Grouping.g_key, gb.Grouping.g_key) in
          if ga.Grouping.g_key <> gb.Grouping.g_key then
            if Hashtbl.mem faulted (i, j) then undecided := keys :: !undecided
            else
              match Hashtbl.find_opt decided (i, j) with
              | Some P_clean -> ()
              | Some P_undecided -> undecided := keys :: !undecided
              | Some (P_quarantined tax) ->
                undecided := keys :: !undecided;
                quarantined := (fst keys, snd keys, tax) :: !quarantined
              | Some (P_inc bindings) ->
                found := mk_inc ga gb (Model.of_bindings bindings) :: !found
              | None -> assert false)
        groups_b)
    groups_a;
  (List.rev !found, List.rev !undecided, List.rev !quarantined)

let check ?split ?budget ?retry ?checkpoint ?(checkpoint_every = 64) ?resume ?(jobs = 1)
    ?(incremental = true) ?(force_pool = false) ?supervise
    ?(on_found = fun (_ : inconsistency) -> ())
    ?(on_warning = default_warning) (a : Grouping.grouped) (b : Grouping.grouped) =
  if a.Grouping.gr_test <> b.Grouping.gr_test then
    invalid_arg "Crosscheck.check: runs of different tests";
  if jobs < 1 then invalid_arg "Crosscheck.check: jobs must be positive";
  (match split with
   | Some n when n <= 0 -> invalid_arg "Crosscheck.check: split must be positive"
   | _ -> ());
  let t0 = Mono.now () in
  let groups_a = Array.of_list a.Grouping.gr_groups in
  let groups_b = Array.of_list b.Grouping.gr_groups in
  let keys_a = Array.map (fun (g : Grouping.group) -> g.Grouping.g_key) groups_a in
  let keys_b = Array.map (fun (g : Grouping.group) -> g.Grouping.g_key) groups_b in
  (* only a checkpointed or resumed check pays for the fingerprint *)
  let fp =
    if checkpoint = None && resume = None then "" else fingerprint groups_a groups_b
  in
  let decided =
    match resume with
    | Some path ->
      read_checkpoint path ~test:a.Grouping.gr_test ~agent_a:a.Grouping.gr_agent
        ~agent_b:b.Grouping.gr_agent ~fp ~on_warning
    | None -> Hashtbl.create 256
  in
  let snapshot () =
    match checkpoint with
    | None -> ()
    | Some path ->
      write_checkpoint path ~test:a.Grouping.gr_test ~agent_a:a.Grouping.gr_agent
        ~agent_b:b.Grouping.gr_agent ~fp decided
  in
  let pairs_checked, pairs_equal, rows = classify groups_a groups_b decided in
  (* Stage 3 — record.  All shared mutation — [decided], [faulted],
     counters, [on_found], checkpoint writes — happens here, which
     {!Pool.run} runs serialized on this domain (via [on_result]): the
     single checkpoint writer survives parallelism. *)
  let faulted : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let pair_faults = ref 0 and retries_total = ref 0 and since_snapshot = ref 0 in
  let record (i, j) (fate, retries) =
    retries_total := !retries_total + retries;
    (match fate with
     | F_fault ->
       (* degraded to undecided, and *not* checkpointed: a resumed run
          retries the pair — the fault was transient, an Unknown was
          earned *)
       incr pair_faults;
       Hashtbl.replace faulted (i, j) ()
     | F_quarantine (tax, msg) ->
       on_warning
         (Printf.sprintf "pair (%s, %s) quarantined [%s] after %d retr%s: %s" keys_a.(i)
            keys_b.(j)
            (Supervise.taxonomy_to_string tax)
            retries
            (if retries = 1 then "y" else "ies")
            msg);
       Hashtbl.replace decided (i, j) (P_quarantined tax)
     | F_ok Pair_unsat -> Hashtbl.replace decided (i, j) P_clean
     | F_ok Pair_undecided -> Hashtbl.replace decided (i, j) P_undecided
     | F_ok (Pair_sat witness) ->
       Hashtbl.replace decided (i, j) (P_inc (Model.bindings witness));
       (* under [-j N], [on_found] fires in completion order; the emitted
          inconsistency list is ordered deterministically anyway *)
       on_found (mk_inc groups_a.(i) groups_b.(j) witness));
    incr since_snapshot;
    if !since_snapshot >= checkpoint_every then begin
      since_snapshot := 0;
      snapshot ()
    end
  in
  (* A task that dies outside any supervised attempt costs its own pairs
     (quarantined under supervision, transiently faulted without), never
     the run. *)
  let record_task_crash ~supervised block e =
    let tax, msg = Supervise.classify_exn e in
    on_warning
      (Printf.sprintf "worker task died (%s): %s" (Supervise.taxonomy_to_string tax) msg);
    let fate = if supervised then F_quarantine (tax, msg) else F_fault in
    Array.iter (fun (i, js) -> List.iter (fun j -> record (i, j) (fate, 0)) js) block
  in
  let all_sat = supervise = None && Chaos.current () = None in
  let template =
    if incremental && split = None && rows <> [||] && not (Solver.certify_enabled ()) then
      (* the B side of every row, in ascending [j], blasted once *)
      let js = List.sort_uniq compare (List.concat_map snd (Array.to_list rows)) in
      Some (Session.template (List.map (fun j -> groups_b.(j).Grouping.g_cond) js))
    else None
  in
  let pair_key (i, j) = (i * Array.length groups_b) + j in
  let worker_init, worker_exit = solver_pool_hooks () in
  let tasks = blocks rows in
  let solve sup =
    ignore
      (Pool.run ~worker_init ~worker_exit ~force_pool
         ~on_result:(fun k -> function
           | Ok pairs -> List.iter (fun (ij, fr) -> record ij fr) pairs
           | Error (e, _) ->
             record_task_crash ~supervised:(sup <> None) tasks.(k) e)
         ~jobs
         (solve_block ~sup ~template ~all_sat ?split ?budget ?retry ~pair_key groups_a
            groups_b)
         tasks)
  in
  (match supervise with
   | None -> solve None
   | Some pol -> Supervise.with_monitor pol (fun sup -> solve (Some sup)));
  let found, undecided, quarantined = emit groups_a groups_b decided faulted in
  snapshot ();
  {
    o_agent_a = a.Grouping.gr_agent;
    o_agent_b = b.Grouping.gr_agent;
    o_test = a.Grouping.gr_test;
    o_inconsistencies = found;
    o_pairs_checked = pairs_checked;
    o_pairs_equal = pairs_equal;
    o_pairs_undecided = undecided;
    o_pair_faults = !pair_faults;
    o_pairs_quarantined = quarantined;
    o_retries = !retries_total;
    o_check_time = Mono.elapsed t0;
  }

let count o = List.length o.o_inconsistencies

let undecided_count o = List.length o.o_pairs_undecided

let quarantined_count o = List.length o.o_pairs_quarantined

(* [pp] and [pp_stable] share everything but the header's trailing check
   time: the stable form is what the exploration oracle and the benchmark
   digests byte-compare (a resumed run against the uninterrupted one), so
   it must not carry wall-clock noise. *)
let pp_gen ~with_time fmt o =
  Format.fprintf fmt "@[<v>%s vs %s on %s: %d inconsistencies (%d pairs checked, %d undecided%s%s%s)@ "
    o.o_agent_a o.o_agent_b o.o_test (count o) o.o_pairs_checked (undecided_count o)
    (if o.o_pair_faults > 0 then Printf.sprintf " of which %d faulted" o.o_pair_faults else "")
    (if o.o_pairs_quarantined <> [] then
       Printf.sprintf " of which %d quarantined" (quarantined_count o)
     else "")
    (if with_time then Printf.sprintf ", %.2fs" o.o_check_time else "");
  List.iteri
    (fun i inc ->
      Format.fprintf fmt "--- inconsistency %d ---@ %s:@   %s@ %s:@   %s@ witness:@   %s@ " i
        o.o_agent_a
        (Trace.result_key inc.i_result_a)
        o.o_agent_b
        (Trace.result_key inc.i_result_b)
        (String.concat "; "
           (List.map
              (fun (v, value) -> Printf.sprintf "%s=0x%Lx" (Expr.var_name v) value)
              (Model.bindings inc.i_witness))))
    o.o_inconsistencies;
  (* quarantined pairs are in [o_pairs_undecided] too; list them only in
     their own, taxonomy-tagged section *)
  let qkeys = List.map (fun (ka, kb, _) -> (ka, kb)) o.o_pairs_quarantined in
  List.iteri
    (fun i (ka, kb) ->
      Format.fprintf fmt "--- undecided %d (budget exhausted) ---@ %s:@   %s@ %s:@   %s@ " i
        o.o_agent_a ka o.o_agent_b kb)
    (List.filter (fun p -> not (List.mem p qkeys)) o.o_pairs_undecided);
  List.iteri
    (fun i (ka, kb, tax) ->
      Format.fprintf fmt "--- quarantined %d (%s) ---@ %s:@   %s@ %s:@   %s@ " i
        (Supervise.taxonomy_to_string tax) o.o_agent_a ka o.o_agent_b kb)
    o.o_pairs_quarantined;
  Format.fprintf fmt "@]"

let pp = pp_gen ~with_time:true
let pp_stable = pp_gen ~with_time:false
let render_stable o = Format.asprintf "%a" pp_stable o
