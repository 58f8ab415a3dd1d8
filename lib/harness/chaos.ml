(* Deterministic internal fault injection.

   PR 1 grew many degradation paths — budgets, the retry ladder,
   checkpoint/resume, crash isolation — that input-level fuzzing never
   exercises from the inside.  This module injects faults *inside* the
   pipeline at four keyed points:

   - [Solver_fault]: a query that reached the SAT core raises instead of
     answering (installed via {!Smt.Solver.set_query_hook}, scoped to the
     crosscheck phase by {!with_solver_faults});
   - [Agent_step]: an agent input step raises mid-drive (validation
     drives each agent once per witness, so draws once per witness);
   - [Checkpoint_truncate]: a checkpoint file is truncated mid-file right
     after being written;
   - [Clock_jump]: the monotonic clock jumps far past any deadline
     ({!Smt.Mono.advance}), expiring wall-clock budgets.

   The plan is deterministic: each point draws from its own
   [Random.State] stream seeded from [(seed, point index)], so the fault
   schedule of one point is independent of how often the others fire and
   a seed reproduces the exact same fault pattern.

   Soundness contract (asserted by test_chaos): injected faults may only
   ever move crosscheck pairs to [o_pairs_undecided] — they must never
   flip a verdict.  Two design points enforce this:
   - {!Injected_fault} is registered as fatal with the engine, so an
     agent-step fault aborts the whole run loudly instead of being
     recorded as an agent crash path (which would be observable behaviour
     and could alter grouping, hence verdicts);
   - clock jumps and solver faults are only delivered inside the
     crosscheck's per-pair scope, where the pair handler degrades them to
     undecided.  A clock jump during path exploration could silently
     truncate the path set and narrow a group disjunction, flipping a SAT
     pair to UNSAT — so it is never injected there. *)

exception Injected_fault of string

type point =
  | Solver_fault
  | Agent_step
  | Checkpoint_truncate
  | Clock_jump
  | Hang

let point_name = function
  | Solver_fault -> "solver-fault"
  | Agent_step -> "agent-step"
  | Checkpoint_truncate -> "checkpoint-truncate"
  | Clock_jump -> "clock-jump"
  | Hang -> "hang"

let npoints = 5

let point_index = function
  | Solver_fault -> 0
  | Agent_step -> 1
  | Checkpoint_truncate -> 2
  | Clock_jump -> 3
  | Hang -> 4

let all_points = [ Solver_fault; Agent_step; Checkpoint_truncate; Clock_jump; Hang ]

let point_of_name s =
  List.find_opt (fun pt -> point_name pt = s) all_points

type draw = { d_point : point; d_key : int option; d_index : int; d_fired : bool }

type plan = {
  p_seed : int;
  p_rate : float;
  p_streams : Random.State.t array; (* one independent stream per point *)
  p_fired : int array;
  p_enabled : bool array;
  (* [?only] mask: a disabled point never fires and never draws.  Each
     point has its own stream, so masking one point cannot shift another
     point's schedule — restricting a plan to, say, the checkpoint point
     keeps the solver/agent/clock points byte-for-byte silent. *)
  p_keyed : (int * int, Random.State.t) Hashtbl.t;
  (* keyed streams, allocated lazily under [fire_lock]: a [fire ~key] draw
     comes from the stream seeded by [(seed, point, key)] instead of the
     point's global stream, so whether it fires depends only on the plan
     and on how many draws *that key* has made — not on how many other
     keys have drawn, and hence not on worker count or scheduling.  The
     crosscheck keys its per-pair solver-fault scope by pair index, which
     is what keeps a [-j N] chaos report byte-identical to [-j 1].
     Streams persist for the plan's lifetime, so a retry of the same key
     (supervised re-attempts) continues the key's stream rather than
     replaying its first draw. *)
  p_counts : (int * int option, int) Hashtbl.t;
  (* draws made so far per (point, key): a draw's zero-based index within
     its own stream.  The per-key count — not the global draw count — is
     what identifies a draw as a {!Schedule.site}, so the identity is
     invariant under worker count exactly where the keyed streams are. *)
  p_script : (int * int option * int, unit) Hashtbl.t option;
  (* [Some sites]: scripted mode — a draw fires iff its (point, key,
     index) site is listed; the random streams are never consulted, so a
     schedule replays the same faults regardless of rate or seed. *)
  p_record : bool;
  mutable p_trace : draw list; (* most recent first; only when p_record *)
  mutable p_draws : int;
}

let make_plan ?only ?(record = false) ?script ~seed ~rate () =
  let enabled =
    match only with
    | None -> Array.make npoints true
    | Some pts ->
      let e = Array.make npoints false in
      List.iter (fun pt -> e.(point_index pt) <- true) pts;
      e
  in
  {
    p_seed = seed;
    p_rate = rate;
    p_streams = Array.init npoints (fun i -> Random.State.make [| 0x50f7; seed; i |]);
    p_fired = Array.make npoints 0;
    p_enabled = enabled;
    p_keyed = Hashtbl.create 64;
    p_counts = Hashtbl.create 64;
    p_script = script;
    p_record = record;
    p_trace = [];
    p_draws = 0;
  }

let plan ?only ?record ~seed ~rate () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Chaos.plan: rate must be within [0, 1]";
  make_plan ?only ?record ~seed ~rate ()

let scripted ?only ?record schedule =
  let script = Hashtbl.create 16 in
  List.iter
    (fun (s : Schedule.site) ->
      match point_of_name s.Schedule.s_point with
      | Some pt ->
        Hashtbl.replace script (point_index pt, s.Schedule.s_key, s.Schedule.s_index) ()
      | None ->
        invalid_arg
          (Printf.sprintf "Chaos.scripted: unknown injection point %S"
             s.Schedule.s_point))
    (Schedule.sites schedule);
  make_plan ?only ?record ~script ~seed:0 ~rate:0.0 ()

let is_scripted p = p.p_script <> None

let seed p = p.p_seed
let rate p = p.p_rate
let fired p pt = p.p_fired.(point_index pt)
let total_fired p = Array.fold_left ( + ) 0 p.p_fired

(* The active plan.  Global by design: injection points live in layers
   (runner, crosscheck, solver hook) that share no parameter path.

   Domain-safety contract: [install]/[deactivate] run on the main domain
   *before* any worker domains spawn (and after they join) — the spawn
   establishes the happens-before that lets workers read [active].  The
   draws themselves may then race from several workers, so [fire]
   serializes them under a mutex: [Random.State] and the counters are
   plain mutable state.  Under [-j 1] the schedule is the deterministic
   per-seed pattern; under [-j N] the *interleaving* of draws across
   points depends on scheduling, so only the soundness invariant (faults
   degrade pairs to undecided) is stable — not which pairs fault. *)
let active : plan option ref = ref None

let fire_lock = Mutex.create ()

let install p = active := Some p
let deactivate () = active := None
let current () = !active

(* Decide whether the fault at [pt] fires now; always consumes exactly one
   draw from the point's stream when a plan is active and the point is
   enabled (a masked point neither fires nor draws).  With [~key] the
   draw comes from the point's keyed stream (see [p_keyed]) instead of
   its global one, making the outcome independent of draw interleaving
   across keys. *)
let fire ?key pt =
  match !active with
  | None -> false
  | Some p ->
    let i = point_index pt in
    if not p.p_enabled.(i) then false
    else
      Mutex.protect fire_lock (fun () ->
          p.p_draws <- p.p_draws + 1;
          let index =
            let n = Option.value ~default:0 (Hashtbl.find_opt p.p_counts (i, key)) in
            Hashtbl.replace p.p_counts (i, key) (n + 1);
            n
          in
          let hit =
            match p.p_script with
            | Some script -> Hashtbl.mem script (i, key, index)
            | None ->
              let stream =
                match key with
                | None -> p.p_streams.(i)
                | Some k -> (
                  match Hashtbl.find_opt p.p_keyed (i, k) with
                  | Some s -> s
                  | None ->
                    let s = Random.State.make [| 0x50f7; p.p_seed; i; k |] in
                    Hashtbl.replace p.p_keyed (i, k) s;
                    s)
              in
              Random.State.float stream 1.0 < p.p_rate
          in
          if p.p_record then
            p.p_trace <-
              { d_point = pt; d_key = key; d_index = index; d_fired = hit } :: p.p_trace;
          if hit then p.p_fired.(i) <- p.p_fired.(i) + 1;
          hit)

let fires = fire

(* --- record/replay ---------------------------------------------------- *)

let trace p = Mutex.protect fire_lock (fun () -> List.rev p.p_trace)

let site_of_draw d =
  {
    Schedule.s_point = point_name d.d_point;
    s_key = d.d_key;
    s_index = d.d_index;
  }

let sites p =
  List.sort_uniq Schedule.compare_site (List.map site_of_draw (trace p))

let to_schedule ?meta p =
  Schedule.make ?meta
    (List.filter_map (fun d -> if d.d_fired then Some (site_of_draw d) else None) (trace p))

let maybe_raise ?key pt = if fire ?key pt then raise (Injected_fault (point_name pt))

(* Far beyond any per-query or per-run deadline in use. *)
let clock_jump_seconds = 86400.0

let maybe_clock_jump ?key () =
  if fire ?key Clock_jump then Smt.Mono.advance clock_jump_seconds

(* A hung task: sleep until the watchdog cancels us, then surface the
   cancellation.  Drawn only when a supervision token is installed — an
   unsupervised run has no watchdog, so firing would freeze the worker
   forever and the point would test nothing (it also keeps this point
   invisible, draws included, to every pre-supervision chaos test).  The
   safety cap bounds the sweep tests even if a watchdog dies; the skewed
   clock may cut it short after a clock-jump fault, which is harmless. *)
let hang_safety_cap_s = 30.0

let maybe_hang ?key () =
  match Smt.Cancel.current () with
  | None -> ()
  | Some tok ->
    if fire ?key Hang then begin
      let t0 = Smt.Mono.now () in
      while
        (not (Smt.Cancel.is_cancelled tok))
        && Smt.Mono.elapsed t0 < hang_safety_cap_s
      do
        Unix.sleepf 0.0005
      done;
      Smt.Cancel.check tok
    end

let maybe_truncate_file path =
  if fire Checkpoint_truncate then begin
    let size = (Unix.stat path).Unix.st_size in
    if size > 0 then Unix.truncate path (size / 2)
  end

(* Deliver solver faults and clock jumps to every query [f] issues that
   reaches the SAT core.  The hook is installed only for the dynamic
   extent of [f] — the crosscheck pair scope — never during path
   exploration (see the soundness contract above).  [~key] routes all
   three draws through keyed streams; the crosscheck keys each scope by
   its pair index so the fault pattern is worker-count-invariant. *)
let with_solver_faults ?key f =
  match !active with
  | None -> f ()
  | Some _ ->
    Smt.Solver.set_query_hook (fun () ->
        maybe_hang ?key ();
        maybe_clock_jump ?key ();
        maybe_raise ?key Solver_fault);
    Fun.protect ~finally:(fun () -> Smt.Solver.set_query_hook (fun () -> ())) f

(* An injected fault recorded as an agent crash path would be observable
   behaviour and could flip a verdict; make the engine re-raise it. *)
let () =
  Symexec.Engine.register_fatal (function Injected_fault _ -> true | _ -> false)

let pp fmt p =
  let fired_list =
    String.concat "; "
      (List.filter_map
         (fun pt ->
           match fired p pt with
           | 0 -> None
           | n -> Some (Printf.sprintf "%s=%d" (point_name pt) n))
         all_points)
  in
  match p.p_script with
  | Some script ->
    Format.fprintf fmt "chaos(scripted sites=%d draws=%d fired=[%s])"
      (Hashtbl.length script) p.p_draws fired_list
  | None ->
    Format.fprintf fmt "chaos(seed=%d rate=%g draws=%d fired=[%s])" p.p_seed p.p_rate
      p.p_draws fired_list
