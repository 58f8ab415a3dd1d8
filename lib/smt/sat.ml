(* CDCL SAT solver: two-watched literals, VSIDS decision heuristic with a
   binary heap, first-UIP conflict analysis, phase saving and Luby restarts.
   This is the engine underneath the bitvector solver.

   The solver is incremental in the MiniSat style: an instance stays valid
   across successive [solve] calls, [add_clause] may be interleaved with
   them, and each call may carry assumption literals that are decided
   first (at their own decision levels) and hold only for that call.
   Learnt clauses, variable activities and saved phases all persist from
   one [solve] to the next — what the solves of one crosscheck row share.

   Literal encoding: variable [v] yields literals [2*v] (positive) and
   [2*v+1] (negated).

   Storage allocates nothing per clause and nothing per watch visit (DESIGN
   §5.12).  Clause literals sit back to back in one int arena, with an
   offset and a length per clause index.  Clause [ci] owns the two watch
   nodes [2*ci] and [2*ci+1]; a watch list is a chain of nodes threaded
   through [wnext] from a per-literal head, and propagation relinks a node
   from one chain to another instead of consing a cell.  The chains keep
   the prepend order of the list-based store this replaced, so the search,
   and every model, is unchanged. *)

(* Why a solve can stop without an answer: every budget maps to one of
   these, and the frontend surfaces them as [Solver.Unknown]. *)
type stop_reason = Conflicts | Decisions | Time

type result = Sat | Unsat | Unknown of stop_reason

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
  mutable arena : int array; (* every stored clause's literals, back to back *)
  mutable arena_top : int;
  mutable cstart : int array; (* clause -> offset of its first literal *)
  mutable clen : int array; (* clause -> literal count *)
  mutable nclauses : int;
  mutable whead : int array; (* literal -> first watch node, or -1 *)
  mutable wnext : int array; (* watch node -> next node in its chain, or -1 *)
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
  mutable lbuf : int array; (* the clause being added *)
  mutable abuf : int array; (* the clause being learnt *)
  mutable seen : Bytes.t; (* [analyze]'s marks, all clear between calls *)
}

let lit_var l = l lsr 1
let lit_neg l = l lxor 1
let lit_sign l = l land 1 = 1 (* true = negated *)

let create () =
  {
    nvars = 0;
    arena = Array.make 64 0;
    arena_top = 0;
    cstart = Array.make 16 0;
    clen = Array.make 16 0;
    nclauses = 0;
    whead = Array.make 16 (-1);
    wnext = Array.make 32 (-1);
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
    lbuf = Array.make 8 0;
    abuf = Array.make 8 0;
    seen = Bytes.make 8 '\000';
  }

(* Back to the state of [create ()], keeping every array's capacity: a
   search on the reset instance is the search a fresh one makes.  Nothing
   is assumed about the state left behind, so a solve that raised is
   undone too. *)
let reset s =
  let nv = s.nvars in
  Array.fill s.assigns 0 nv 0;
  Array.fill s.level 0 nv 0;
  Array.fill s.reason 0 nv (-1);
  Array.fill s.activity 0 nv 0.0;
  Array.fill s.polarity 0 nv false;
  Array.fill s.heap_pos 0 nv (-1);
  Array.fill s.whead 0 (2 * nv) (-1);
  Bytes.fill s.seen 0 nv '\000';
  s.nvars <- 0;
  s.arena_top <- 0;
  s.nclauses <- 0;
  s.trail_size <- 0;
  s.ndecisions <- 0;
  s.qhead <- 0;
  s.var_inc <- 1.0;
  s.heap_size <- 0;
  s.ok <- true;
  s.conflicts <- 0;
  s.propagations <- 0;
  s.decisions <- 0;
  s.nlearnts <- 0;
  s.proof <- None

(* Turn [s] into a copy of [t] by blits: a row instance recycled across a
   template's rows (DESIGN §5.11).  Every slot [s] used past [t]'s
   variables goes back to its [create] value, which [new_var] relies on
   ([heap_insert] skips a set [heap_pos]; a stale [whead] corrupts a watch
   chain).  An array shorter than [t]'s is replaced at [t]'s length. *)
let restore s ~from:t =
  let nv = t.nvars and old = s.nvars in
  (* [a] holding [src]'s first [n] slots, and [d] from there up to [upto] *)
  let copy a src n upto d =
    let a = if Array.length a >= Array.length src then a else Array.make (Array.length src) d in
    Array.blit src 0 a 0 n;
    if upto > n then Array.fill a n (upto - n) d;
    a
  in
  s.assigns <- copy s.assigns t.assigns nv old 0;
  s.level <- copy s.level t.level nv old 0;
  s.reason <- copy s.reason t.reason nv old (-1);
  s.activity <- copy s.activity t.activity nv old 0.0;
  s.polarity <- copy s.polarity t.polarity nv old false;
  s.heap_pos <- copy s.heap_pos t.heap_pos nv old (-1);
  s.whead <- copy s.whead t.whead (2 * nv) (2 * old) (-1);
  s.trail <- copy s.trail t.trail t.trail_size 0 0;
  s.trail_lim <- copy s.trail_lim t.trail_lim t.ndecisions 0 0;
  s.abuf <- copy s.abuf t.abuf 0 0 0;
  s.heap <- copy s.heap t.heap t.heap_size 0 0;
  s.arena <- copy s.arena t.arena t.arena_top 0 0;
  s.cstart <- copy s.cstart t.cstart t.nclauses 0 0;
  s.clen <- copy s.clen t.clen t.nclauses 0 0;
  s.wnext <- copy s.wnext t.wnext (2 * t.nclauses) 0 (-1);
  if Bytes.length s.seen < Bytes.length t.seen then s.seen <- Bytes.copy t.seen
  else Bytes.fill s.seen 0 old '\000';
  s.nvars <- nv;
  s.arena_top <- t.arena_top;
  s.nclauses <- t.nclauses;
  s.trail_size <- t.trail_size;
  s.ndecisions <- t.ndecisions;
  s.qhead <- t.qhead;
  s.var_inc <- t.var_inc;
  s.heap_size <- t.heap_size;
  s.ok <- t.ok;
  s.conflicts <- t.conflicts;
  s.propagations <- t.propagations;
  s.decisions <- t.decisions;
  s.nlearnts <- t.nlearnts;
  s.proof <- None

(* --- proof logging --------------------------------------------------- *)

let enable_proof s =
  if s.proof = None then s.proof <- Some { p_orig_rev = []; p_steps_rev = [] }

let proof_enabled s = s.proof <> None

let log_original s lits n =
  match s.proof with
  | None -> ()
  | Some p -> p.p_orig_rev <- Array.sub lits 0 n :: p.p_orig_rev

let log_step s step =
  match s.proof with
  | None -> ()
  | Some p -> p.p_steps_rev <- step :: p.p_steps_rev

let proof_steps s =
  match s.proof with None -> [] | Some p -> List.rev p.p_steps_rev

let original_clauses s =
  match s.proof with None -> [] | Some p -> List.rev p.p_orig_rev

let grow a n default =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a + 1)) default in
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
    s.heap <- grow s.heap (s.heap_size + 1) 0;
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
  (* one capacity for every per-variable array ([solve] may grow [trail_lim] further) *)
  if s.nvars > Array.length s.assigns then begin
    let n = s.nvars in
    s.assigns <- grow s.assigns n 0;
    s.level <- grow s.level n 0;
    s.reason <- grow s.reason n (-1);
    s.activity <- grow s.activity n 0.0;
    s.polarity <- grow s.polarity n false;
    s.heap_pos <- grow s.heap_pos n (-1);
    s.trail <- grow s.trail n 0;
    s.trail_lim <- grow s.trail_lim n 0;
    (* a learnt clause has at most one literal per variable *)
    s.abuf <- grow s.abuf n 0;
    s.seen <- Bytes.make (Array.length s.assigns) '\000'
  end;
  s.whead <- grow s.whead (2 * s.nvars) (-1);
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

(* Store [lits.(0 .. n-1)] as a new clause; returns its index. *)
let push_clause s lits n =
  let ci = s.nclauses in
  if ci >= Array.length s.cstart then begin
    s.cstart <- grow s.cstart (ci + 1) 0;
    s.clen <- grow s.clen (ci + 1) 0;
    s.wnext <- grow s.wnext (2 * Array.length s.cstart) (-1)
  end;
  s.arena <- grow s.arena (s.arena_top + n) 0;
  Array.blit lits 0 s.arena s.arena_top n;
  s.cstart.(ci) <- s.arena_top;
  s.clen.(ci) <- n;
  s.arena_top <- s.arena_top + n;
  s.nclauses <- ci + 1;
  ci

(* Prepend watch node [w] to the chain of literal [l]. *)
let link s w l =
  s.wnext.(w) <- s.whead.(l);
  s.whead.(l) <- w

(* A clause is woken when one of its first two literals becomes false,
   i.e. when that literal's negation is assigned. *)
let watch_clause s ci =
  let o = s.cstart.(ci) in
  link s (2 * ci) (lit_neg s.arena.(o));
  link s ((2 * ci) + 1) (lit_neg s.arena.(o + 1))

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

(* The one clause path: add the clause in [lbuf.(0 .. n-1)] (contract in
   sat.mli).  Any leftover non-root assignment is unwound first, so the
   level-0 simplification only filters by permanent assignments.  Sorting
   (insertion sort: the blaster's clauses have 2-3 literals), dedup and
   filtering run in place, and a stored clause is copied into the arena. *)
let add_lbuf s n =
  cancel_until s 0;
  let a = s.lbuf in
  log_original s a n;
  if s.ok then begin
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    (* a literal and its negation ([2v], [2v+1]) sort next to each other *)
    let k = ref 0 and drop = ref false and prev = ref (-1) in
    for i = 0 to n - 1 do
      let l = a.(i) in
      if l <> !prev then begin
        if l = lit_neg !prev then drop := true
        else begin
          match lit_value s l with
          | 1 -> drop := true
          | 2 -> ()
          | _ ->
            a.(!k) <- l;
            incr k
        end;
        prev := l
      end
    done;
    if not !drop then
      match !k with
      | 0 ->
        (* the clause is falsified by level-0 units, all of which an RUP
           checker rederives by propagation — the contradiction is a
           legitimate proof step *)
        log_step s (P_add [||]);
        s.ok <- false
      | 1 -> enqueue s a.(0) (-1)
      | k -> watch_clause s (push_clause s a k)
  end

let add_clause s lits =
  let n = List.length lits in
  s.lbuf <- grow s.lbuf n 0;
  List.iteri (fun i l -> s.lbuf.(i) <- l) lits;
  add_lbuf s n

let add_clause2 s a b =
  s.lbuf.(0) <- a;
  s.lbuf.(1) <- b;
  add_lbuf s 2

let add_clause3 s a b c =
  s.lbuf.(0) <- a;
  s.lbuf.(1) <- b;
  s.lbuf.(2) <- c;
  add_lbuf s 3

(* --- propagation ---------------------------------------------------- *)

(* Returns the conflicting clause's index, or -1.  The woken chain of [l]
   is detached and each node relinked as it is visited: onto [l] again
   while the clause still watches there, onto its new watch otherwise.
   After a conflict the rest of the chain goes back onto [l] unvisited. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let fl = lit_neg l in
    let node = ref s.whead.(l) in
    s.whead.(l) <- -1;
    while !node >= 0 do
      let w = !node in
      node := s.wnext.(w);
      if !confl >= 0 then link s w l
      else begin
        let ci = w lsr 1 in
        let a = s.arena and o = s.cstart.(ci) in
        (* ensure the false literal is at position 1 *)
        if a.(o) = fl then begin
          a.(o) <- a.(o + 1);
          a.(o + 1) <- fl
        end;
        if lit_value s a.(o) = 1 then link s w l (* satisfied: keep watching *)
        else begin
          (* find a new watch *)
          let n = s.clen.(ci) in
          let k = ref 2 in
          while !k < n && lit_value s a.(o + !k) = 2 do
            incr k
          done;
          if !k < n then begin
            let tmp = a.(o + 1) in
            a.(o + 1) <- a.(o + !k);
            a.(o + !k) <- tmp;
            link s w (lit_neg a.(o + 1))
          end
          else begin
            (* unit or conflict *)
            link s w l;
            if lit_value s a.(o) = 2 then begin
              confl := ci;
              s.qhead <- s.trail_size
            end
            else enqueue s a.(o) ci
          end
        end
      end
    done
  done;
  !confl

(* --- conflict analysis (first UIP) ---------------------------------- *)

(* The learnt clause is left in [abuf.(0 .. n-1)], asserting literal
   first and the others newest first; returns [n]. *)
let analyze s confl =
  let seen = s.seen in
  let n = ref 1 in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (s.trail_size - 1) in
  let continue = ref true in
  while !continue do
    let o = s.cstart.(!confl) in
    let start = if !p = -1 then 0 else 1 in
    for j = start to s.clen.(!confl) - 1 do
      let q = s.arena.(o + j) in
      let v = lit_var q in
      if Bytes.get seen v = '\000' && s.level.(v) > 0 then begin
        Bytes.set seen v '\001';
        bump_var s v;
        if s.level.(v) >= s.ndecisions then incr counter
        else begin
          s.abuf.(!n) <- q;
          incr n
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
  let a = s.abuf and n = !n in
  (* the trail walk cleared every current-level mark; clear the rest *)
  for i = 1 to n - 1 do
    Bytes.set seen (lit_var a.(i)) '\000'
  done;
  for i = 1 to n / 2 do
    let tmp = a.(i) in
    a.(i) <- a.(n - i);
    a.(n - i) <- tmp
  done;
  a.(0) <- lit_neg !p;
  n

let record_learnt s n =
  let a = s.abuf in
  (* log a private copy: the stored clause is physically reordered by
     watch maintenance during later propagation *)
  if proof_enabled s then log_step s (P_add (Array.sub a 0 n));
  if n = 1 then begin
    cancel_until s 0;
    enqueue s a.(0) (-1)
  end
  else begin
    (* the literal of highest level among the rest becomes the second
       watch, for a correct watch after backjump, and its level is the
       backjump level *)
    let best = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(lit_var a.(i)) > s.level.(lit_var a.(!best)) then best := i
    done;
    let tmp = a.(1) in
    a.(1) <- a.(!best);
    a.(!best) <- tmp;
    cancel_until s s.level.(lit_var a.(1));
    let ci = push_clause s a n in
    s.nlearnts <- s.nlearnts + 1;
    watch_clause s ci;
    enqueue s a.(0) ci
  end

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
  let v = ref (-1) in
  while !v < 0 && s.heap_size > 0 do
    let x = heap_pop s in
    if s.assigns.(x) = 0 then v := x
  done;
  let v = !v in
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
    s.trail_lim <- grow s.trail_lim (s.nvars + nassume + 1) 0;
    let conflicts0 = s.conflicts and decisions0 = s.decisions in
    let over_budget () =
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
            record_learnt s (analyze s confl);
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
