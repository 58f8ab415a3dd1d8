(* CDCL SAT solver: two-watched literals, VSIDS decision heuristic with a
   binary heap, first-UIP conflict analysis, phase saving and Luby restarts.
   This is the engine underneath the bitvector solver.

   The solver is incremental in the MiniSat style: an instance stays valid
   across successive [solve] calls, [add_clause] may be interleaved with
   them, and each call may carry assumption literals that are decided
   first (at their own decision levels) and hold only for that call.
   Learnt clauses, variable activities and saved phases all persist from
   one [solve] to the next — that retention is what the crosscheck's
   row-major sessions amortize.

   Literal encoding: variable [v] yields literals [2*v] (positive) and
   [2*v+1] (negated). *)

(* Why a solve can stop without an answer: every budget maps to one of
   these, and the frontend surfaces them as [Solver.Unknown]. *)
type stop_reason = Conflicts | Decisions | Time

type result = Sat | Unsat | Unknown of stop_reason

type clause = { lits : int array; learnt : bool }

(* DRUP proof logging.  When enabled, every clause the solver derives
   (learnt clauses, including the final empty clause of an Unsat run) is
   recorded in derivation order, together with the raw original clauses as
   the caller supplied them — before level-0 simplification, so an
   independent checker replays against exactly the input CNF.  The log is
   [None] unless [enable_proof] is called: certification off-path must not
   allocate anything. *)
type proof_step = P_add of int array | P_delete of int array

type proof_log = {
  mutable p_orig_rev : int array list; (* original clauses, newest first *)
  mutable p_steps_rev : proof_step list; (* derivation steps, newest first *)
}

type t = {
  mutable nvars : int;
  mutable clauses : clause array; (* dynamic *)
  mutable nclauses : int;
  mutable watches : int list array; (* literal -> clause indices *)
  mutable assigns : int array; (* var -> 0 unassigned / 1 true / 2 false *)
  mutable level : int array; (* var -> decision level *)
  mutable reason : int array; (* var -> clause index or -1 *)
  mutable trail : int array; (* literals in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* decision-level boundaries *)
  mutable ndecisions : int;
  mutable qhead : int;
  mutable activity : float array;
  mutable polarity : bool array; (* saved phases *)
  mutable var_inc : float;
  mutable heap : int array; (* binary max-heap of vars by activity *)
  mutable heap_size : int;
  mutable heap_pos : int array; (* var -> heap index or -1 *)
  mutable ok : bool; (* false once a top-level conflict is found *)
  mutable conflicts : int;
  mutable propagations : int;
  mutable decisions : int; (* cumulative, for the decision budget *)
  mutable nlearnts : int; (* learnt clauses in the database *)
  mutable proof : proof_log option;
}

let lit_var l = l lsr 1
let lit_neg l = l lxor 1
let lit_sign l = l land 1 = 1 (* true = negated *)

let create () =
  {
    nvars = 0;
    clauses = Array.make 16 { lits = [||]; learnt = false };
    nclauses = 0;
    watches = Array.make 16 [];
    assigns = Array.make 8 0;
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    ndecisions = 0;
    qhead = 0;
    activity = Array.make 8 0.0;
    polarity = Array.make 8 false;
    var_inc = 1.0;
    heap = Array.make 8 0;
    heap_size = 0;
    heap_pos = Array.make 8 (-1);
    ok = true;
    conflicts = 0;
    propagations = 0;
    decisions = 0;
    nlearnts = 0;
    proof = None;
  }

(* --- proof logging --------------------------------------------------- *)

let enable_proof s =
  if s.proof = None then s.proof <- Some { p_orig_rev = []; p_steps_rev = [] }

let proof_enabled s = s.proof <> None

let log_original s lits =
  match s.proof with
  | None -> ()
  | Some p -> p.p_orig_rev <- Array.of_list lits :: p.p_orig_rev

let log_step s step =
  match s.proof with
  | None -> ()
  | Some p -> p.p_steps_rev <- step :: p.p_steps_rev

let proof_steps s =
  match s.proof with None -> [] | Some p -> List.rev p.p_steps_rev

let original_clauses s =
  match s.proof with None -> [] | Some p -> List.rev p.p_orig_rev

let grow_int_array a n default =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a + 1)) default in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float_array a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a + 1)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_bool_array a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a + 1)) false in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* --- VSIDS heap ---------------------------------------------------- *)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vj) <- i;
  s.heap_pos.(vi) <- j

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(parent)) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best)) then
    best := l;
  if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best)) then
    best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap <- grow_int_array s.heap (s.heap_size + 1) 0;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let decay_activities s = s.var_inc <- s.var_inc /. 0.95

(* --- variables and clauses ----------------------------------------- *)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assigns <- grow_int_array s.assigns s.nvars 0;
  s.level <- grow_int_array s.level s.nvars 0;
  s.reason <- grow_int_array s.reason s.nvars (-1);
  s.activity <- grow_float_array s.activity s.nvars;
  s.polarity <- grow_bool_array s.polarity s.nvars;
  s.heap_pos <- grow_int_array s.heap_pos s.nvars (-1);
  s.trail <- grow_int_array s.trail s.nvars 0;
  s.trail_lim <- grow_int_array s.trail_lim s.nvars 0;
  if Array.length s.watches < 2 * s.nvars then begin
    let w = Array.make (max (2 * s.nvars) (2 * Array.length s.watches + 2)) [] in
    Array.blit s.watches 0 w 0 (Array.length s.watches);
    s.watches <- w
  end;
  heap_insert s v;
  v

(* literal value: 0 unassigned, 1 true, 2 false *)
let lit_value s l =
  let a = s.assigns.(lit_var l) in
  if a = 0 then 0 else if lit_sign l then 3 - a else a

let enqueue s l reason =
  let v = lit_var l in
  s.assigns.(v) <- (if lit_sign l then 2 else 1);
  s.level.(v) <- s.ndecisions;
  s.reason.(v) <- reason;
  s.polarity.(v) <- not (lit_sign l);
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let push_clause s c =
  if s.nclauses >= Array.length s.clauses then begin
    let a = Array.make (2 * Array.length s.clauses) c in
    Array.blit s.clauses 0 a 0 s.nclauses;
    s.clauses <- a
  end;
  s.clauses.(s.nclauses) <- c;
  s.nclauses <- s.nclauses + 1;
  s.nclauses - 1

let watch_clause s ci =
  let c = s.clauses.(ci) in
  s.watches.(lit_neg c.lits.(0)) <- ci :: s.watches.(lit_neg c.lits.(0));
  s.watches.(lit_neg c.lits.(1)) <- ci :: s.watches.(lit_neg c.lits.(1))

let cancel_until s lvl =
  if s.ndecisions > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let v = lit_var s.trail.(i) in
      s.assigns.(v) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.ndecisions <- lvl
  end

(* Add a problem clause.  May be called between [solve]s: any leftover
   non-root assignment is unwound first, so the level-0 simplification
   below only ever filters by permanent assignments. *)
let add_clause s lits =
  cancel_until s 0;
  log_original s lits;
  if s.ok then begin
    (* dedup, drop false lits? At level 0 we can simplify by assignments. *)
    let lits = List.sort_uniq compare lits in
    let tauto =
      List.exists (fun l -> List.exists (fun l' -> l' = lit_neg l) lits) lits
    in
    if not tauto then begin
      let lits = List.filter (fun l -> lit_value s l <> 2) lits in
      if List.exists (fun l -> lit_value s l = 1) lits then ()
      else
        match lits with
        | [] ->
          (* the clause is falsified by level-0 units, all of which an RUP
             checker rederives by propagation — the contradiction is a
             legitimate proof step *)
          log_step s (P_add [||]);
          s.ok <- false
        | [ l ] -> enqueue s l (-1)
        | _ ->
          let arr = Array.of_list lits in
          let ci = push_clause s { lits = arr; learnt = false } in
          watch_clause s ci
    end
  end

(* --- propagation ---------------------------------------------------- *)

exception Conflict of int (* clause index *)

let propagate s =
  try
    while s.qhead < s.trail_size do
      let l = s.trail.(s.qhead) in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      let watching = s.watches.(l) in
      s.watches.(l) <- [];
      let rec go = function
        | [] -> ()
        | ci :: rest -> (
          let c = s.clauses.(ci) in
          (* ensure the false literal is at position 1 *)
          if c.lits.(0) = lit_neg l then begin
            c.lits.(0) <- c.lits.(1);
            c.lits.(1) <- lit_neg l
          end;
          if lit_value s c.lits.(0) = 1 then begin
            (* satisfied: keep watching *)
            s.watches.(l) <- ci :: s.watches.(l);
            go rest
          end
          else begin
            (* find a new watch *)
            let n = Array.length c.lits in
            let found = ref false in
            let k = ref 2 in
            while (not !found) && !k < n do
              if lit_value s c.lits.(!k) <> 2 then begin
                let tmp = c.lits.(1) in
                c.lits.(1) <- c.lits.(!k);
                c.lits.(!k) <- tmp;
                s.watches.(lit_neg c.lits.(1)) <- ci :: s.watches.(lit_neg c.lits.(1));
                found := true
              end
              else incr k
            done;
            if !found then go rest
            else begin
              (* unit or conflict *)
              s.watches.(l) <- ci :: s.watches.(l);
              match lit_value s c.lits.(0) with
              | 2 ->
                (* conflict: restore remaining watches first *)
                List.iter (fun ci' -> s.watches.(l) <- ci' :: s.watches.(l)) rest;
                s.qhead <- s.trail_size;
                raise (Conflict ci)
              | _ ->
                enqueue s c.lits.(0) ci;
                go rest
            end
          end)
      in
      go watching
    done;
    -1
  with Conflict ci -> ci

(* --- conflict analysis (first UIP) ---------------------------------- *)

let analyze s confl =
  let seen = Bytes.make s.nvars '\000' in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (s.trail_size - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c = s.clauses.(!confl) in
    let start = if !p = -1 then 0 else 1 in
    for j = start to Array.length c.lits - 1 do
      let q = c.lits.(j) in
      let v = lit_var q in
      if Bytes.get seen v = '\000' && s.level.(v) > 0 then begin
        Bytes.set seen v '\001';
        bump_var s v;
        if s.level.(v) >= s.ndecisions then incr counter
        else begin
          learnt := q :: !learnt;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    (* pick next literal to look at from the trail *)
    while Bytes.get seen (lit_var s.trail.(!idx)) = '\000' do
      decr idx
    done;
    p := s.trail.(!idx);
    Bytes.set seen (lit_var !p) '\000';
    decr idx;
    decr counter;
    if !counter <= 0 then continue := false
    else confl := s.reason.(lit_var !p)
  done;
  let learnt = lit_neg !p :: !learnt in
  (learnt, !btlevel)

let record_learnt s lits btlevel =
  (* log a private copy: the stored clause's literal array is physically
     reordered by watch maintenance during later propagation *)
  log_step s (P_add (Array.of_list lits));
  cancel_until s btlevel;
  match lits with
  | [] -> s.ok <- false
  | [ l ] -> enqueue s l (-1)
  | l :: _ ->
    (* ensure second literal has the highest level among the rest for a
       correct watch after backjump *)
    let arr = Array.of_list lits in
    let best = ref 1 in
    for i = 2 to Array.length arr - 1 do
      if s.level.(lit_var arr.(i)) > s.level.(lit_var arr.(!best)) then best := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let ci = push_clause s { lits = arr; learnt = true } in
    s.nlearnts <- s.nlearnts + 1;
    watch_clause s ci;
    enqueue s l ci

(* --- main loop ------------------------------------------------------ *)

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let decide s =
  let rec pick () =
    if s.heap_size = 0 then -1
    else
      let v = heap_pop s in
      if s.assigns.(v) = 0 then v else pick ()
  in
  let v = pick () in
  if v < 0 then -1
  else begin
    s.decisions <- s.decisions + 1;
    s.trail_lim.(s.ndecisions) <- s.trail_size;
    s.ndecisions <- s.ndecisions + 1;
    let l = if s.polarity.(v) then 2 * v else (2 * v) + 1 in
    enqueue s l (-1);
    v
  end

(* Budgets make [solve] total in practice: [max_conflicts]/[max_decisions]
   are counted from this call's start, [deadline] is an absolute monotonic
   time ([Mono.now] seconds).  When any budget is exhausted the search is
   unwound to level 0 and [Unknown] is returned — the instance stays valid
   but carries no model.

   [assumptions] are literals decided before any free decision, one per
   decision level, MiniSat-style: they hold for this call only.  An
   [Unsat] under non-empty assumptions means "unsat under these
   assumptions"; it does
   not poison the instance, and no empty clause is derived or logged —
   which is also why certify mode solves from scratch instead. *)
let no_assumptions = [||]

let solve ?(assumptions = no_assumptions) ?max_conflicts ?max_decisions ?deadline s =
  (* unwind whatever a previous call left assigned: clauses, activities
     and phases persist across calls, the trail does not *)
  cancel_until s 0;
  if not s.ok then Unsat
  else begin
    let nassume = Array.length assumptions in
    (* one level per assumption (even ones already true get an empty
       level, keeping level index = assumption index) plus one per free
       decision *)
    s.trail_lim <- grow_int_array s.trail_lim (s.nvars + nassume + 1) 0;
    let conflicts0 = s.conflicts and decisions0 = s.decisions in
    (* Fetch the supervision token once: the per-conflict/per-decision check
       is then a single atomic load.  Cancellation raises out of the search;
       the trail is unwound by the next [solve]'s [cancel_until]. *)
    let cancel_tok = Cancel.current () in
    let over_budget () =
      (match cancel_tok with Some t -> Cancel.check t | None -> ());
      if match max_conflicts with
        | Some n -> s.conflicts - conflicts0 >= n
        | None -> false
      then Some Conflicts
      else if
        match max_decisions with
        | Some n -> s.decisions - decisions0 >= n
        | None -> false
      then Some Decisions
      else if match deadline with Some d -> Mono.now () >= d | None -> false then
        Some Time
      else None
    in
    (* pick the next branch: the call's assumptions first, in order, then
       VSIDS.  [`A_sat]: every variable is assigned; [`A_failed]: an
       assumption is already falsified by the trail. *)
    let rec assume_or_decide () =
      if s.ndecisions < nassume then begin
        let l = assumptions.(s.ndecisions) in
        match lit_value s l with
        | 1 ->
          (* already implied: open an empty decision level *)
          s.trail_lim.(s.ndecisions) <- s.trail_size;
          s.ndecisions <- s.ndecisions + 1;
          assume_or_decide ()
        | 2 -> `A_failed
        | _ ->
          s.decisions <- s.decisions + 1;
          s.trail_lim.(s.ndecisions) <- s.trail_size;
          s.ndecisions <- s.ndecisions + 1;
          enqueue s l (-1);
          `A_decided
      end
      else if decide s < 0 then `A_sat
      else `A_decided
    in
    let restart_count = ref 0 in
    let result = ref None in
    while !result = None do
      let conflict_budget = 100 * luby !restart_count in
      incr restart_count;
      let conflicts_here = ref 0 in
      let restart = ref false in
      while !result = None && not !restart do
        let confl = propagate s in
        if confl >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          incr conflicts_here;
          if s.ndecisions = 0 then begin
            (* conflict under propagation alone: the empty clause is RUP *)
            log_step s (P_add [||]);
            s.ok <- false;
            result := Some Unsat
          end
          else begin
            let learnt, btlevel = analyze s confl in
            record_learnt s learnt btlevel;
            decay_activities s;
            match over_budget () with
            | Some r ->
              cancel_until s 0;
              result := Some (Unknown r)
            | None -> ()
          end
        end
        else if !conflicts_here >= conflict_budget then begin
          cancel_until s 0;
          restart := true
        end
        else
          match over_budget () with
          (* also bounds conflict-free dives through huge instances *)
          | Some r ->
            cancel_until s 0;
            result := Some (Unknown r)
          | None -> (
            match assume_or_decide () with
            | `A_sat -> result := Some Sat
            | `A_failed ->
              cancel_until s 0;
              result := Some Unsat
            | `A_decided -> ())
      done
    done;
    match !result with Some r -> r | None -> assert false
  end

(* Model access after [Sat]: unassigned vars default to false. *)
let model_value s v = if v < s.nvars then s.assigns.(v) = 1 else false

let stats s = (s.conflicts, s.propagations, s.nvars, s.nclauses)

let decisions s = s.decisions

let learnt_count s = s.nlearnts
