(* Path exploration by re-execution (generational search).

   A program under test is an OCaml function over an ['ev env]; it reads
   symbolic inputs (bitvector expressions), branches via [branch], and emits
   observable events via [emit].  When a branch condition is symbolic and
   both arms are feasible under the current path condition, the engine
   records a *replay script* for the unexplored arm on the frontier and
   continues down the chosen arm.  Each frontier item is re-executed from
   the start with its script; scripted decisions are consumed without
   solver calls, so the solver only runs at genuinely new forks.  Each
   frontier item also carries the model its fork solved for the deferred
   arm: that model satisfies the whole replayed prefix, so the first new
   branch after the replay solves one arm, not two.

   This plays the role Cloud9 plays for SOFT: it produces, per explored
   path, the path condition, the normalized output events, and the covered
   program points. *)

open Smt

type decision = Dir of bool | Val of int64

type 'ev env = {
  mutable pc_rev : Expr.boolean list;
  mutable pc_vars_rev : Expr.var list list; (* variables of each [pc_rev] entry *)
  uf : (int, int) Hashtbl.t; (* union-find over variable ids: [pc_rev]'s components *)
  mutable dom : Interval.t;
  mutable script : decision list; (* prescribed prefix to replay *)
  mutable taken_rev : decision list;
  mutable events_rev : 'ev list;
  mutable model : Model.t option; (* invariant: satisfies [pc_rev] when Some *)
  cov : Coverage.set;
  mutable ndecisions : int;
  eng : 'ev engine_state;
}

and 'ev engine_state = {
  frontier : (decision list * Model.t option) Strategy.frontier;
  global_cov : Coverage.set;
  max_decisions : int;
  use_interval : bool;
  solver_budget : Solver.budget option; (* per-query budget for arm solving *)
  concrete : bool; (* witness mode: the cached model is the only feasible world *)
  mutable forks : int;
  mutable aborted : int;
  mutable truncated : int;
  mutable solver_unknowns : int; (* arm queries that exhausted their budget *)
  mutable exceptions : int; (* paths ended by an uncaught agent exception *)
}

exception Path_crash of string
exception Path_abort
exception Path_stop

(* Exceptions the per-path crash isolation must never swallow, beyond the
   built-in [Out_of_memory]/[Solver_error].  Fault injection registers its
   marker exception here: a chaos fault recorded as an ordinary crash path
   would become part of the agent's observable behaviour and could flip a
   crosscheck verdict, so it has to abort the whole run loudly instead. *)
let fatal_predicates : (exn -> bool) list ref = ref []

let register_fatal p = fatal_predicates := p :: !fatal_predicates

let is_fatal e = List.exists (fun p -> p e) !fatal_predicates

type 'ev path_result = {
  pc : Expr.boolean list; (* in execution order *)
  path_cond : Expr.boolean; (* balanced conjunction of [pc] *)
  events : 'ev list;
  crashed : string option;
  covered : Coverage.snapshot;
  decisions : int;
}

type run_stats = {
  path_count : int;
  aborted : int;
  truncated : int;
  forks : int;
  exceptions : int; (* paths that ended in an uncaught agent exception *)
  solver_unknowns : int; (* arm queries lost to the solver budget *)
  deadline_hit : bool; (* exploration stopped by the wall-clock budget *)
  cpu_time : float;
  wall_time : float;
  avg_constraint_size : float;
  max_constraint_size : int;
  solver_sat_calls : int;
  solver_cache_hits : int;
  solver_interval_hits : int;
}

type 'ev run_result = {
  results : 'ev path_result list;
  stats : run_stats;
  coverage : Coverage.set;
}

(* ------------------------------------------------------------------ *)
(* Primitives available to programs under test *)

let emit env ev = env.events_rev <- ev :: env.events_rev

let events_so_far env = List.rev env.events_rev

let event_count env = List.length env.events_rev

let crash _env msg = raise (Path_crash msg)

(* End the current path normally (e.g. the program under test blocks
   waiting for input that will never come); events so far are recorded. *)
let stop _env = raise Path_stop

let cover env point =
  Coverage.mark env.cov point;
  Coverage.mark env.eng.global_cov point

let mark_branch env (loc : Coverage.branch_point option) dir =
  match loc with
  | None -> ()
  | Some bp -> cover env (if dir then bp.Coverage.on_true else bp.Coverage.on_false)

let path_condition env = List.rev env.pc_rev

let rec find uf v =
  match Hashtbl.find_opt uf v with
  | Some p when p <> v ->
    let r = find uf p in
    Hashtbl.replace uf v r;
    r
  | _ -> v

let root env (v : Expr.var) = find env.uf (Expr.var_id v)

(* Solve pc ∧ extra, returning a model on success.  The interval domain
   gives a fast sound UNSAT answer first.  A budget-exhausted [Unknown]
   degrades to "arm not taken": the path set may then be incomplete, which
   SOFT tolerates by design (§4.1) — the loss is counted in
   [solver_unknowns] so reports can say so.  In witness mode the cached
   model (the witness, never dropped) is the only world: no arm is solved.

   Constraint independence (KLEE's, which Cloud9 inherits): only the slice
   of pc that shares a variable with [extra], directly or through other
   constraints, goes to the solver, in pc order.  The cached model
   satisfies pc, and the rest of pc shares no variable with the slice or
   [extra], so pc ∧ extra is Sat exactly when slice ∧ extra is, and the
   cached model with every slice variable overwritten by the slice's model
   (unbound ones read as 0) satisfies all of it.  With no cached model the
   slice is the whole of pc. *)
let solve_arm env extra =
  if env.eng.concrete then None
  else if env.eng.use_interval && Interval.add (Interval.copy env.dom) extra = Interval.Unsat
  then None
  else begin
    let extra_vars = Expr.vars_of_bool extra in
    let roots = List.map (root env) extra_vars in
    (* committing a constraint puts all its variables in one set, so its
       first variable's root stands for all of them *)
    let in_slice vs =
      Option.is_none env.model
      || match vs with v :: _ -> List.mem (root env v) roots | [] -> false
    in
    let slice, slice_vars =
      List.fold_right2
        (fun c vs ((cs, vss) as acc) -> if in_slice vs then (c :: cs, vs :: vss) else acc)
        env.pc_rev env.pc_vars_rev ([], [])
    in
    match Solver.check ~use_interval:false ?budget:env.eng.solver_budget (extra :: slice) with
    | Solver.Sat m ->
      let merged =
        match env.model with Some base -> Model.copy base | None -> Model.empty ()
      in
      List.iter
        (List.iter (fun v -> Model.set merged v (Model.get m v)))
        (extra_vars :: slice_vars);
      let query = extra :: env.pc_rev in
      if not (Model.satisfies merged query) then
        raise (Solver.Solver_error ("sliced arm model does not satisfy the path condition", query));
      Some merged
    | Solver.Unsat -> None
    | Solver.Unknown _ ->
      env.eng.solver_unknowns <- env.eng.solver_unknowns + 1;
      None
  end

let commit_constraint env c =
  let vs = Expr.vars_of_bool c in
  env.pc_rev <- c :: env.pc_rev;
  env.pc_vars_rev <- vs :: env.pc_vars_rev;
  (match vs with
   | [] -> ()
   | v0 :: rest ->
     let r0 = root env v0 in
     List.iter
       (fun v ->
         let r = root env v in
         if r <> r0 then Hashtbl.replace env.uf r r0)
       rest);
  if env.eng.use_interval then ignore (Interval.add env.dom c);
  (* keep the cached model honest: drop it if the new constraint falsifies
     it *)
  match env.model with
  | Some m when not (Model.eval_bool m c) -> env.model <- None
  | _ -> ()

let take_dir env loc cond d =
  commit_constraint env (if d then cond else Expr.not_ cond);
  env.taken_rev <- Dir d :: env.taken_rev;
  mark_branch env loc d;
  d

(* Branch on a symbolic condition, forking if both arms are feasible. *)
let branch ?loc env cond =
  if Expr.is_true cond then begin
    mark_branch env loc true;
    true
  end
  else if Expr.is_false cond then begin
    mark_branch env loc false;
    false
  end
  else begin
    env.ndecisions <- env.ndecisions + 1;
    if env.ndecisions > env.eng.max_decisions then begin
      env.eng.truncated <- env.eng.truncated + 1;
      raise Path_abort
    end;
    match env.script with
    | Dir d :: rest ->
      env.script <- rest;
      take_dir env loc cond d
    | Val _ :: _ ->
      invalid_arg "Engine.branch: replay script out of sync (expected direction)"
    | [] ->
      (* the cached model satisfies pc, so the arm it picks is feasible
         without a solver call; only the other arm needs solving *)
      let model_pick = Option.map (fun m -> Model.eval_bool m cond) env.model in
      let arm want =
        match model_pick with
        | Some b when b = want -> (true, env.model)
        | _ -> (
          match solve_arm env (if want then cond else Expr.not_ cond) with
          | Some m -> (true, Some m)
          | None -> (false, None))
      in
      let feas_true, model_true = arm true in
      let feas_false, model_false = arm false in
      (match (feas_true, feas_false) with
       | true, true ->
         env.eng.forks <- env.eng.forks + 1;
         let fresh =
           match loc with
           | None -> false
           | Some bp -> not (Coverage.covered env.eng.global_cov bp.Coverage.on_false)
         in
         let alt_script = List.rev (Dir false :: env.taken_rev) in
         Strategy.add env.eng.frontier ~fresh (alt_script, model_false);
         env.model <- model_true;
         take_dir env loc cond true
       | true, false ->
         env.model <- model_true;
         take_dir env loc cond true
       | false, true ->
         env.model <- model_false;
         take_dir env loc cond false
       | false, false ->
         (* path condition became unsatisfiable: dead path *)
         env.eng.aborted <- env.eng.aborted + 1;
         raise Path_abort)
  end

(* Add a constraint; kill the path if it is infeasible. *)
let assume env cond =
  if Expr.is_true cond then ()
  else if Expr.is_false cond then begin
    env.eng.aborted <- env.eng.aborted + 1;
    raise Path_abort
  end
  else begin
    let ok =
      match env.model with
      | Some m when Model.eval_bool m cond -> true
      | _ -> (
        match solve_arm env cond with
        | Some m ->
          env.model <- Some m;
          true
        | None -> false)
    in
    if ok then commit_constraint env cond
    else begin
      env.eng.aborted <- env.eng.aborted + 1;
      raise Path_abort
    end
  end

(* Pin a symbolic expression to one concrete representative value under the
   current path condition.  Replays deterministically. *)
let concretize env (e : Expr.bv) =
  match Expr.const_value e with
  | Some v -> v
  | None -> (
    match env.script with
    | Val v :: rest ->
      env.script <- rest;
      commit_constraint env (Expr.eq e (Expr.const ~width:(Expr.width e) v));
      env.taken_rev <- Val v :: env.taken_rev;
      v
    | Dir _ :: _ ->
      invalid_arg "Engine.concretize: replay script out of sync (expected value)"
    | [] -> (
      let model =
        match env.model with
        | Some m -> Some m
        | None -> (
          match Solver.check ?budget:env.eng.solver_budget env.pc_rev with
          | Solver.Sat m -> Some m
          | Solver.Unsat -> None
          | Solver.Unknown _ ->
            env.eng.solver_unknowns <- env.eng.solver_unknowns + 1;
            None)
      in
      match model with
      | None ->
        env.eng.aborted <- env.eng.aborted + 1;
        raise Path_abort
      | Some m ->
        let v = Model.eval_bv m e in
        env.model <- Some m;
        commit_constraint env (Expr.eq e (Expr.const ~width:(Expr.width e) v));
        env.taken_rev <- Val v :: env.taken_rev;
        v))

(* Convenience: branch on equality with a constant. *)
let branch_eq ?loc env e v =
  branch ?loc env (Expr.eq e (Expr.const ~width:(Expr.width e) v))

(* ------------------------------------------------------------------ *)
(* Exploration driver *)

let run ?(strategy = Strategy.default) ?(max_paths = max_int) ?(max_decisions = 4096)
    ?max_attempts ?(use_interval = true) ?deadline_ms ?solver_budget ?concrete program =
  (* aborted and truncated re-executions consume attempts so that a program
     with unbounded symbolic branching cannot spin the driver forever *)
  let max_attempts =
    match max_attempts with
    | Some n -> n
    | None -> if max_paths >= max_int / 4 then max_int else (2 * max_paths) + 1024
  in
  let eng =
    {
      frontier = Strategy.create strategy;
      global_cov = Coverage.empty_set ();
      max_decisions;
      use_interval = use_interval && Option.is_none concrete;
      solver_budget;
      concrete = Option.is_some concrete;
      forks = 0;
      aborted = 0;
      truncated = 0;
      solver_unknowns = 0;
      exceptions = 0;
    }
  in
  let solver_stats0 =
    let s = Solver.stats () in
    Solver.(s.sat_calls, s.cache_hits, s.interval_hits)
  in
  let cpu0 = Sys.time () and wall0 = Mono.now () in
  let deadline =
    Option.map (fun ms -> wall0 +. (float_of_int ms /. 1000.0)) deadline_ms
  in
  let deadline_hit = ref false in
  let past_deadline () =
    match deadline with
    | Some d when Mono.now () >= d ->
      deadline_hit := true;
      true
    | _ -> false
  in
  Strategy.add eng.frontier ~fresh:true
    ([], Some (Option.value concrete ~default:(Model.empty ())));
  let results = ref [] in
  let count = ref 0 in
  let attempts = ref 0 in
  let rec loop () =
    if !count >= max_paths || !attempts >= max_attempts || past_deadline () then ()
    else
      match Strategy.pop eng.frontier with
      | None -> ()
      | Some (script, model) ->
        incr attempts;
        let env =
          {
            pc_rev = [];
            pc_vars_rev = [];
            uf = Hashtbl.create 32;
            dom = Interval.create ();
            script;
            taken_rev = [];
            events_rev = [];
            model;
            cov = Coverage.empty_set ();
            ndecisions = 0;
            eng;
          }
        in
        let record crashed =
          incr count;
          let pc = List.rev env.pc_rev in
          results :=
            {
              pc;
              path_cond = Expr.balanced_conj pc;
              events = List.rev env.events_rev;
              crashed;
              covered = Coverage.snapshot env.cov;
              decisions = env.ndecisions;
            }
            :: !results
        in
        (try
           (try program env with Path_stop -> ());
           record None
         with
         | Path_crash msg -> record (Some msg)
         | Path_abort -> ()
         | (Out_of_memory | Solver.Solver_error _) as e ->
           (* process-level resource exhaustion and solver soundness
              violations must not be masked as one bad path *)
           raise e
         | e when is_fatal e -> raise e
         | e ->
           (* crash isolation: an uncaught exception in the agent ends this
              path with a crash record instead of aborting the whole run *)
           eng.exceptions <- eng.exceptions + 1;
           record (Some ("uncaught exception: " ^ Printexc.to_string e)));
        loop ()
  in
  loop ();
  let results = List.rev !results in
  let cpu_time = Sys.time () -. cpu0 and wall_time = Mono.elapsed wall0 in
  let sizes = List.map (fun r -> Expr.bool_size r.path_cond) results in
  let total_size = List.fold_left ( + ) 0 sizes in
  let max_size = List.fold_left max 0 sizes in
  let sc1, cc1, ic1 =
    let s = Solver.stats () in
    Solver.(s.sat_calls, s.cache_hits, s.interval_hits)
  in
  let sc0, cc0, ic0 = solver_stats0 in
  {
    results;
    coverage = eng.global_cov;
    stats =
      {
        path_count = List.length results;
        aborted = eng.aborted;
        truncated = eng.truncated;
        forks = eng.forks;
        exceptions = eng.exceptions;
        solver_unknowns = eng.solver_unknowns;
        deadline_hit = !deadline_hit;
        cpu_time;
        wall_time;
        avg_constraint_size =
          (if results = [] then 0.0
           else float_of_int total_size /. float_of_int (List.length results));
        max_constraint_size = max_size;
        solver_sat_calls = sc1 - sc0;
        solver_cache_hits = cc1 - cc0;
        solver_interval_hits = ic1 - ic0;
      };
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "paths=%d aborted=%d truncated=%d forks=%d exceptions=%d cpu=%.2fs constraints(avg=%.2f max=%d) sat_calls=%d"
    s.path_count s.aborted s.truncated s.forks s.exceptions s.cpu_time
    s.avg_constraint_size s.max_constraint_size s.solver_sat_calls;
  if s.solver_unknowns > 0 then Format.fprintf fmt " solver_unknowns=%d" s.solver_unknowns;
  if s.deadline_hit then Format.fprintf fmt " (wall-clock budget hit)"
