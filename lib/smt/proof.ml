(* Independent DRUP proof checker.

   [check_derivation originals steps] replays a clause derivation produced
   by {!Sat} (with proof logging enabled) against the raw original CNF and
   accepts it only if every added clause has the reverse-unit-propagation
   property — assuming its negation and propagating units over the clauses
   admitted so far yields a conflict — and the derivation reaches the
   empty clause.  The code shares nothing with [Sat] beyond the literal
   encoding (variable [v] is literals [2*v]/[2*v+1]): it is a second,
   deliberately separate implementation of unit propagation, so a bug in
   the solver's propagation or conflict analysis cannot vouch for itself.

   The checker's top-level assignment only ever grows (units are
   propagated permanently as clauses are admitted; RUP assumptions are
   trailed and undone), so the two-watched-literal invariant needs no
   repair on undo. *)

type verdict = Valid | Invalid of string

let lit_var l = l lsr 1
let lit_neg l = l lxor 1

type cls = { lits : int array; mutable alive : bool }

(* The filler of unused clause slots.  One shared value: a fresh record
   as [Array.make]'s initial value is a young block, and OCaml 5 empties
   the minor heap before filling a major-heap array with one. *)
let no_clause = { lits = [||]; alive = false }

type t = {
  mutable value : int array; (* var -> 0 unassigned / 1 true / 2 false *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable qhead : int;
  mutable watches : int list array; (* watched literal -> clause indices *)
  mutable clauses : cls array;
  mutable nclauses : int;
  index : (int list, int list) Hashtbl.t; (* sorted lits -> clause indices *)
  mutable refuted : bool; (* a top-level contradiction has been reached *)
}

let create () =
  {
    value = Array.make 16 0;
    trail = Array.make 16 0;
    trail_size = 0;
    qhead = 0;
    watches = Array.make 32 [];
    clauses = Array.make 16 no_clause;
    nclauses = 0;
    index = Hashtbl.create 256;
    refuted = false;
  }

let ensure_vars t lits =
  let maxv = Array.fold_left (fun m l -> max m (lit_var l)) (-1) lits in
  let need = maxv + 1 in
  if need > Array.length t.value then begin
    let cap = max need (2 * Array.length t.value) in
    let value = Array.make cap 0 in
    Array.blit t.value 0 value 0 (Array.length t.value);
    t.value <- value;
    let trail = Array.make cap 0 in
    Array.blit t.trail 0 trail 0 t.trail_size;
    t.trail <- trail;
    let watches = Array.make (2 * cap) [] in
    Array.blit t.watches 0 watches 0 (Array.length t.watches);
    t.watches <- watches
  end

let lit_value t l =
  let a = t.value.(lit_var l) in
  if a = 0 then 0 else if l land 1 = 1 then 3 - a else a

let assign t l =
  t.value.(lit_var l) <- (if l land 1 = 1 then 2 else 1);
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

(* Unit propagation to fixpoint; returns [true] on conflict. *)
let propagate t =
  let conflict = ref false in
  while (not !conflict) && t.qhead < t.trail_size do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let fl = lit_neg l in
    (* clauses watching [fl] just lost that literal *)
    let ws = t.watches.(fl) in
    t.watches.(fl) <- [];
    let rec go = function
      | [] -> ()
      | ci :: rest ->
        let c = t.clauses.(ci) in
        if not c.alive then go rest (* deleted: drop the watch lazily *)
        else begin
          if c.lits.(0) = fl then begin
            c.lits.(0) <- c.lits.(1);
            c.lits.(1) <- fl
          end;
          if lit_value t c.lits.(0) = 1 then begin
            t.watches.(fl) <- ci :: t.watches.(fl);
            go rest
          end
          else begin
            let n = Array.length c.lits in
            let k = ref 2 in
            while !k < n && lit_value t c.lits.(!k) = 2 do
              incr k
            done;
            if !k < n then begin
              let tmp = c.lits.(1) in
              c.lits.(1) <- c.lits.(!k);
              c.lits.(!k) <- tmp;
              t.watches.(c.lits.(1)) <- ci :: t.watches.(c.lits.(1));
              go rest
            end
            else begin
              t.watches.(fl) <- ci :: t.watches.(fl);
              match lit_value t c.lits.(0) with
              | 2 ->
                List.iter (fun ci' -> t.watches.(fl) <- ci' :: t.watches.(fl)) rest;
                conflict := true
              | 0 ->
                assign t c.lits.(0);
                go rest
              | _ -> go rest
            end
          end
        end
    in
    go ws
  done;
  !conflict

(* Normalize a raw clause: sorted, duplicate-free literals, or [None] for
   a tautology (inert: it can never propagate or conflict). *)
let normalize raw =
  let lits = List.sort_uniq compare (Array.to_list raw) in
  if List.exists (fun l -> List.mem (lit_neg l) lits) lits then None
  else Some lits

let store t arr key =
  if t.nclauses >= Array.length t.clauses then begin
    let a = Array.make (2 * Array.length t.clauses) no_clause in
    Array.blit t.clauses 0 a 0 t.nclauses;
    t.clauses <- a
  end;
  let ci = t.nclauses in
  t.clauses.(ci) <- { lits = arr; alive = true };
  t.nclauses <- ci + 1;
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.index key) in
  Hashtbl.replace t.index key (ci :: prev);
  ci

(* Admit a clause into the database, updating the permanent top-level
   assignment.  Assumes the top level is at propagation fixpoint. *)
let attach t raw =
  match normalize raw with
  | None -> ()
  | Some lits ->
    let arr = Array.of_list lits in
    ensure_vars t arr;
    let n = Array.length arr in
    if n = 0 then t.refuted <- true
    else if Array.exists (fun l -> lit_value t l = 1) arr then
      (* permanently satisfied: keep for deletion lookups, never watch *)
      ignore (store t arr lits)
    else begin
      (* move currently-non-false literals to the front; top-level
         assignments are permanent, so false-at-attach stays false *)
      let j = ref 0 in
      for i = 0 to n - 1 do
        if lit_value t arr.(i) <> 2 then begin
          let tmp = arr.(!j) in
          arr.(!j) <- arr.(i);
          arr.(i) <- tmp;
          incr j
        end
      done;
      let ci = store t arr lits in
      if !j = 0 then t.refuted <- true
      else if !j = 1 then begin
        assign t arr.(0);
        if propagate t then t.refuted <- true
      end
      else begin
        t.watches.(arr.(0)) <- ci :: t.watches.(arr.(0));
        t.watches.(arr.(1)) <- ci :: t.watches.(arr.(1))
      end
    end

let delete t raw =
  match normalize raw with
  | None -> ()
  | Some lits -> (
    match Hashtbl.find_opt t.index lits with
    | None | Some [] -> () (* unknown deletions are ignored, as in drat-trim *)
    | Some (ci :: rest) ->
      t.clauses.(ci).alive <- false;
      Hashtbl.replace t.index lits rest)

(* Does [raw] have the reverse-unit-propagation property w.r.t. the
   current database?  Assume the negation of every literal, propagate,
   demand a conflict; the temporary trail suffix is undone either way. *)
let rup_holds t raw =
  ensure_vars t raw;
  let mark = t.trail_size in
  let qhead0 = t.qhead in
  let satisfied = ref false in
  let n = Array.length raw in
  let i = ref 0 in
  while (not !satisfied) && !i < n do
    let l = raw.(!i) in
    (match lit_value t l with
     | 1 -> satisfied := true (* ¬l contradicts the assignment outright *)
     | 2 -> () (* ¬l already holds *)
     | _ -> assign t (lit_neg l));
    incr i
  done;
  let refutes = !satisfied || propagate t in
  for j = t.trail_size - 1 downto mark do
    t.value.(lit_var t.trail.(j)) <- 0
  done;
  t.trail_size <- mark;
  t.qhead <- qhead0;
  refutes

let pp_clause fmt lits =
  if Array.length lits = 0 then Format.fprintf fmt "<empty>"
  else
    Array.iteri
      (fun i l ->
        Format.fprintf fmt "%s%s%d" (if i > 0 then " " else "")
          (if l land 1 = 1 then "-" else "") (lit_var l))
      lits

let check_derivation originals steps =
  let t = create () in
  List.iter (attach t) originals;
  if propagate t then t.refuted <- true;
  let rec go i = function
    | [] -> if t.refuted then Valid else Invalid "derivation does not reach the empty clause"
    | _ when t.refuted -> Valid (* contradiction established; the rest is moot *)
    | Sat.P_delete lits :: rest ->
      delete t lits;
      go (i + 1) rest
    | Sat.P_add lits :: rest ->
      if rup_holds t lits then begin
        attach t lits;
        go (i + 1) rest
      end
      else
        Invalid
          (Format.asprintf "step %d is not reverse-unit-propagation: %a" i pp_clause lits)
  in
  go 0 steps
