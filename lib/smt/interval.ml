(* A cheap, sound UNSAT-only pre-filter for path-feasibility queries.

   Tracks, per variable, an unsigned range [lo, hi], known-one and known-zero
   bit masks, and a small set of forbidden exact values.  Constraints that do
   not fit the recognized shapes are ignored, which keeps the domain an
   over-approximation: [add] answering [`Unsat] is definitive, everything
   else must go to the SAT solver.

   This matters because the vast majority of branch conditions in OpenFlow
   agents are single-field validations (equality with a constant, range
   checks, masked-bits checks), which this domain decides instantly. *)

type dom = {
  lo : int64; (* unsigned *)
  hi : int64;
  ones : int64; (* bits known to be 1 *)
  zeros : int64; (* bits known to be 0 *)
  forbidden : int64 list;
  dwidth : int;
}

type t = { doms : (int, dom) Hashtbl.t }

type verdict = Unsat | Unknown

let create () = { doms = Hashtbl.create 16 }

let copy t = { doms = Hashtbl.copy t.doms }

let full_dom w =
  { lo = 0L; hi = Expr.mask w; ones = 0L; zeros = 0L; forbidden = []; dwidth = w }

let get t (v : Expr.var) =
  match Hashtbl.find_opt t.doms (Expr.var_id v) with
  | Some d -> d
  | None -> full_dom (Expr.var_width v)

let set t (v : Expr.var) d = Hashtbl.replace t.doms (Expr.var_id v) d

let ucmp = Int64.unsigned_compare
let umin a b = if ucmp a b <= 0 then a else b
let umax a b = if ucmp a b >= 0 then a else b

(* Is the domain definitely empty?  Only definite answers are allowed. *)
let dom_empty d =
  ucmp d.lo d.hi > 0
  || not (Int64.equal (Int64.logand d.ones d.zeros) 0L)
  || ucmp d.ones d.hi > 0 (* minimal mask-consistent value exceeds hi *)
  || ucmp (Int64.logand (Expr.mask d.dwidth) (Int64.lognot d.zeros)) d.lo < 0
  ||
  (* exact-value cases *)
  (Int64.equal d.lo d.hi && List.exists (Int64.equal d.lo) d.forbidden)
  || Int64.equal (Int64.logor d.ones d.zeros) (Expr.mask d.dwidth)
     && (let forced = d.ones in
         ucmp forced d.lo < 0 || ucmp forced d.hi > 0
         || List.exists (Int64.equal forced) d.forbidden)
  ||
  (* small range: enumerate *)
  (let span = Int64.sub d.hi d.lo in
   ucmp span 128L <= 0
   &&
   let ok = ref false in
   let v = ref d.lo in
   let continue = ref true in
   while !continue && not !ok do
     let x = !v in
     if
       Int64.equal (Int64.logand x d.ones) d.ones
       && Int64.equal (Int64.logand x d.zeros) 0L
       && not (List.exists (Int64.equal x) d.forbidden)
     then ok := true;
     if Int64.equal x d.hi then continue := false else v := Int64.add x 1L
   done;
   not !ok)

(* Recognize [e] as a variable possibly wrapped in zero-extensions, returning
   the variable. Extract/masks are handled separately. *)
let rec as_var (e : Expr.bv) =
  match e.node with
  | Expr.Var v -> Some v
  | Expr.Zext inner -> as_var inner
  | _ -> None

let rec as_const (e : Expr.bv) =
  match e.node with
  | Expr.Const c -> Some c
  | Expr.Zext inner -> as_const inner
  | _ -> None

(* Recognize [var & mask] for masked-equality constraints. *)
let as_masked_var (e : Expr.bv) =
  match e.node with
  | Expr.Binop (Expr.Andb, a, b) -> (
    match (as_var a, as_const b) with
    | Some v, Some m -> Some (v, m)
    | None, _ -> (
      match (as_const a, as_var b) with
      | Some m, Some v -> Some (v, m)
      | _ -> None)
    | _ -> None)
  | _ -> None

let refine_eq t v c =
  let d = get t v in
  set t v { d with lo = umax d.lo c; hi = umin d.hi c }

let refine_neq t v c =
  let d = get t v in
  set t v { d with forbidden = c :: d.forbidden }

let refine_ult t v c =
  (* v < c  (unsigned) *)
  if Int64.equal c 0L then
    let d = get t v in
    set t v { d with lo = 1L; hi = 0L } (* empty *)
  else
    let d = get t v in
    set t v { d with hi = umin d.hi (Int64.sub c 1L) }

let refine_ule t v c =
  let d = get t v in
  set t v { d with hi = umin d.hi c }

let refine_ugt t v c =
  (* v > c *)
  let d = get t v in
  if Int64.equal c (Expr.mask d.dwidth) then set t v { d with lo = 1L; hi = 0L }
  else set t v { d with lo = umax d.lo (Int64.add c 1L) }

let refine_uge t v c =
  let d = get t v in
  set t v { d with lo = umax d.lo c }

let refine_masked_eq t v m c =
  let d = get t v in
  set t v
    {
      d with
      ones = Int64.logor d.ones (Int64.logand m c);
      zeros = Int64.logor d.zeros (Int64.logand m (Int64.lognot c));
    }

(* Add one constraint. Unrecognized shapes are soundly ignored. *)
let rec add_bool t (b : Expr.boolean) =
  match b.bnode with
  | Expr.True | Expr.False -> ()
  | Expr.And (x, y) ->
    add_bool t x;
    add_bool t y
  | Expr.Not inner -> add_negated t inner
  | Expr.Cmp (op, x, y) -> add_cmp t op x y
  | Expr.Or _ -> ()

and add_negated t (b : Expr.boolean) =
  match b.bnode with
  | Expr.Cmp (Expr.Eq, x, y) -> (
    match (as_var x, as_const y, as_const x, as_var y) with
    | Some v, Some c, _, _ | _, _, Some c, Some v -> refine_neq t v c
    | _ -> ())
  | Expr.Or (x, y) ->
    (* ¬(x ∨ y) = ¬x ∧ ¬y *)
    add_negated t x;
    add_negated t y
  | Expr.Not inner -> add_bool t inner
  | _ -> ()

and add_cmp t op x y =
  match op with
  | Expr.Eq -> (
    match (as_var x, as_const y) with
    | Some v, Some c -> refine_eq t v c
    | _ -> (
      match (as_const x, as_var y) with
      | Some c, Some v -> refine_eq t v c
      | _ -> (
        match (as_masked_var x, as_const y) with
        | Some (v, m), Some c -> refine_masked_eq t v m c
        | _ -> (
          match (as_const x, as_masked_var y) with
          | Some c, Some (v, m) -> refine_masked_eq t v m c
          | _ -> ()))))
  | Expr.Ult -> (
    match (as_var x, as_const y) with
    | Some v, Some c -> refine_ult t v c
    | _ -> (
      match (as_const x, as_var y) with
      | Some c, Some v -> refine_ugt t v c
      | _ -> ()))
  | Expr.Ule -> (
    match (as_var x, as_const y) with
    | Some v, Some c -> refine_ule t v c
    | _ -> (
      match (as_const x, as_var y) with
      | Some c, Some v -> refine_uge t v c
      | _ -> ()))
  | Expr.Slt | Expr.Sle -> ()

let add t b =
  if Expr.is_false b then Unsat
  else begin
    add_bool t b;
    let empty = Hashtbl.fold (fun _ d acc -> acc || dom_empty d) t.doms false in
    if empty then Unsat else Unknown
  end

let check conds =
  let t = create () in
  let rec go = function
    | [] -> Unknown
    | c :: rest -> ( match add t c with Unsat -> Unsat | Unknown -> go rest)
  in
  go conds

(* Hint for model-free concretization: a value consistent with the domain of
   [v], preferring the smallest admissible one. Best-effort (the SAT model is
   authoritative). *)
let suggest t (v : Expr.var) =
  let d = get t v in
  let candidate = umax d.lo d.ones in
  if
    ucmp candidate d.hi <= 0
    && Int64.equal (Int64.logand candidate d.zeros) 0L
    && Int64.equal (Int64.logand candidate d.ones) d.ones
    && not (List.exists (Int64.equal candidate) d.forbidden)
  then Some candidate
  else None
