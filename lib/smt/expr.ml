(* Hash-consed bitvector and boolean expressions (QF_BV fragment).

   Every node carries a unique id assigned by the hash-consing tables, so
   structural equality of expressions is O(1) id comparison.  This is what
   makes trace comparison and solver memoization cheap throughout SOFT.

   Bitvector widths range over 1..64; concrete values are stored in an
   [int64] normalized to the width (high bits zero). *)

type unop = Bnot | Neg

type binop = Add | Sub | Mul | Andb | Orb | Xorb | Shl | Lshr

type cmp = Eq | Ult | Ule | Slt | Sle

type bv = { id : int; width : int; node : bv_node }

and bv_node =
  | Const of int64
  | Var of var
  | Unop of unop * bv
  | Binop of binop * bv * bv
  | Ite of boolean * bv * bv
  | Extract of bv * int * int (* hi, lo inclusive *)
  | Concat of bv * bv (* high, low *)
  | Zext of bv
  | Sext of bv

and boolean = { bid : int; bnode : bool_node }

and bool_node =
  | True
  | False
  | Cmp of cmp * bv * bv
  | Not of boolean
  | And of boolean * boolean
  | Or of boolean * boolean

and var = { vid : int; name : string; vwidth : int }

exception Width_mismatch of string

let mask width = if width >= 64 then -1L else Int64.sub (Int64.shift_left 1L width) 1L

let norm width v = Int64.logand v (mask width)

(* ------------------------------------------------------------------ *)
(* Domain-safety: the hash-consing tables below are the one piece of
   process-global mutable state in the SMT stack that parallel crosscheck
   workers must share — expression identity (the ids) is what makes
   cross-domain results comparable, so the tables cannot be per-domain.
   Every table access goes through [interned], a single mutex: interning
   is a brief lookup/insert, so even the uncontended single-domain cost is
   a few nanoseconds against the bit-blast and CDCL work each node feeds.
   Plain [Hashtbl] reads racing an insert (which may resize) are undefined
   under OCaml 5, hence lookups are locked too — never "optimistically"
   read outside the lock. *)

let intern_lock = Mutex.create ()

let interned f = Mutex.protect intern_lock f

(* ------------------------------------------------------------------ *)
(* Variable registry: names are globally unique handles so that two
   independent symbolic executions (agent A, agent B) fed with inputs built
   from the same names share variables — the crosscheck phase depends on
   this. *)

let var_table : (string, var) Hashtbl.t = Hashtbl.create 256
let vars_by_id : (int, var) Hashtbl.t = Hashtbl.create 256
let var_counter = ref 0

let make_var name width =
  if width < 1 || width > 64 then invalid_arg "Expr.var: width out of range";
  interned (fun () ->
      match Hashtbl.find_opt var_table name with
      | Some v ->
        if v.vwidth <> width then
          raise (Width_mismatch (Printf.sprintf "var %s: %d vs %d" name v.vwidth width));
        v
      | None ->
        let v = { vid = !var_counter; name; vwidth = width } in
        incr var_counter;
        Hashtbl.add var_table name v;
        Hashtbl.add vars_by_id v.vid v;
        v)

let var_by_id vid = interned (fun () -> Hashtbl.find_opt vars_by_id vid)
let var_name v = v.name
let var_width v = v.vwidth
let var_id v = v.vid
let all_vars () = interned (fun () -> Hashtbl.fold (fun _ v acc -> v :: acc) var_table [])

(* ------------------------------------------------------------------ *)
(* Hash-consing: keys reference children by id only. *)

type bv_key =
  | KConst of int64 * int
  | KVar of int
  | KUnop of unop * int
  | KBinop of binop * int * int
  | KIte of int * int * int
  | KExtract of int * int * int
  | KConcat of int * int
  | KZext of int * int
  | KSext of int * int

type bool_key =
  | KTrue
  | KFalse
  | KCmp of cmp * int * int
  | KNot of int
  | KAnd of int * int
  | KOr of int * int

let bv_table : (bv_key, bv) Hashtbl.t = Hashtbl.create 4096
let bool_table : (bool_key, boolean) Hashtbl.t = Hashtbl.create 4096
let bv_counter = ref 0
let bool_counter = ref 0

let live_nodes () =
  interned (fun () ->
      Hashtbl.length bv_table + Hashtbl.length bool_table + Hashtbl.length var_table)

let table_sizes () =
  interned (fun () ->
      (Hashtbl.length bv_table, Hashtbl.length bool_table, Hashtbl.length var_table))

let key_of_bv_node width node =
  match node with
  | Const c -> KConst (c, width)
  | Var v -> KVar v.vid
  | Unop (op, a) -> KUnop (op, a.id)
  | Binop (op, a, b) -> KBinop (op, a.id, b.id)
  | Ite (c, a, b) -> KIte (c.bid, a.id, b.id)
  | Extract (a, hi, lo) -> KExtract (a.id, hi, lo)
  | Concat (a, b) -> KConcat (a.id, b.id)
  | Zext a -> KZext (a.id, width)
  | Sext a -> KSext (a.id, width)

let key_of_bool_node node =
  match node with
  | True -> KTrue
  | False -> KFalse
  | Cmp (c, a, b) -> KCmp (c, a.id, b.id)
  | Not a -> KNot a.bid
  | And (a, b) -> KAnd (a.bid, b.bid)
  | Or (a, b) -> KOr (a.bid, b.bid)

let intern_bv width node =
  let key = key_of_bv_node width node in
  interned (fun () ->
      match Hashtbl.find_opt bv_table key with
      | Some e -> e
      | None ->
        let e = { id = !bv_counter; width; node } in
        incr bv_counter;
        Hashtbl.add bv_table key e;
        e)

let intern_bool node =
  let key = key_of_bool_node node in
  interned (fun () ->
      match Hashtbl.find_opt bool_table key with
      | Some e -> e
      | None ->
        let e = { bid = !bool_counter; bnode = node } in
        incr bool_counter;
        Hashtbl.add bool_table key e;
        e)

(* ------------------------------------------------------------------ *)
(* Constructors with constant folding and algebraic simplification. *)

let const ~width v =
  if width < 1 || width > 64 then invalid_arg "Expr.const: width out of range";
  intern_bv width (Const (norm width v))

let var ~width name = intern_bv width (Var (make_var name width))
let of_var v = intern_bv v.vwidth (Var v)

let width e = e.width

let is_const e = match e.node with Const _ -> true | _ -> false

let const_value e = match e.node with Const c -> Some c | _ -> None

let tru = intern_bool True
let fls = intern_bool False

let of_bool b = if b then tru else fls
let is_true b = b.bnode = True
let is_false b = b.bnode = False

(* Sign-extend a normalized width-[w] value into a full int64. *)
let to_signed w v =
  if w >= 64 then v
  else
    let sign_bit = Int64.logand v (Int64.shift_left 1L (w - 1)) in
    if Int64.equal sign_bit 0L then v else Int64.logor v (Int64.lognot (mask w))

let eval_unop op w a =
  match op with
  | Bnot -> norm w (Int64.lognot a)
  | Neg -> norm w (Int64.neg a)

let eval_binop op w a b =
  match op with
  | Add -> norm w (Int64.add a b)
  | Sub -> norm w (Int64.sub a b)
  | Mul -> norm w (Int64.mul a b)
  | Andb -> Int64.logand a b
  | Orb -> Int64.logor a b
  | Xorb -> Int64.logxor a b
  | Shl ->
    let s = Int64.to_int b in
    if s >= w || s < 0 then 0L else norm w (Int64.shift_left a s)
  | Lshr ->
    let s = Int64.to_int b in
    if s >= w || s < 0 then 0L else Int64.shift_right_logical a s

let eval_cmp op w a b =
  match op with
  | Eq -> Int64.equal a b
  | Ult -> Int64.unsigned_compare a b < 0
  | Ule -> Int64.unsigned_compare a b <= 0
  | Slt -> Int64.compare (to_signed w a) (to_signed w b) < 0
  | Sle -> Int64.compare (to_signed w a) (to_signed w b) <= 0

let unop op a =
  match a.node with
  | Const c -> const ~width:a.width (eval_unop op a.width c)
  | Unop (Bnot, inner) when op = Bnot -> inner
  | Unop (Neg, inner) when op = Neg -> inner
  | _ -> intern_bv a.width (Unop (op, a))

let bnot a = unop Bnot a
let neg a = unop Neg a

let binop op a b =
  if a.width <> b.width then
    raise (Width_mismatch (Printf.sprintf "binop: %d vs %d" a.width b.width));
  let w = a.width in
  match (a.node, b.node) with
  | Const ca, Const cb -> const ~width:w (eval_binop op w ca cb)
  | _, Const 0L when op = Add || op = Sub || op = Orb || op = Xorb || op = Shl || op = Lshr
    -> a
  | Const 0L, _ when op = Add || op = Orb || op = Xorb -> b
  | _, Const 0L when op = Andb || op = Mul -> const ~width:w 0L
  | Const 0L, _ when op = Andb || op = Mul -> const ~width:w 0L
  | _, Const cb when op = Andb && Int64.equal cb (mask w) -> a
  | Const ca, _ when op = Andb && Int64.equal ca (mask w) -> b
  | _, Const 1L when op = Mul -> a
  | Const 1L, _ when op = Mul -> b
  | _ ->
    if a.id = b.id then
      match op with
      | Xorb | Sub -> const ~width:w 0L
      | Andb | Orb -> a
      | _ -> intern_bv w (Binop (op, a, b))
    else intern_bv w (Binop (op, a, b))

let add a b = binop Add a b
let sub a b = binop Sub a b
let mul a b = binop Mul a b
let logand a b = binop Andb a b
let logor a b = binop Orb a b
let logxor a b = binop Xorb a b
let shl a b = binop Shl a b
let lshr a b = binop Lshr a b

let extract ~hi ~lo a =
  if lo < 0 || hi >= a.width || hi < lo then invalid_arg "Expr.extract: bad range";
  let w = hi - lo + 1 in
  if lo = 0 && hi = a.width - 1 then a
  else
    match a.node with
    | Const c -> const ~width:w (norm w (Int64.shift_right_logical c lo))
    | Extract (inner, _, lo') -> intern_bv w (Extract (inner, hi + lo', lo + lo'))
    | _ -> intern_bv w (Extract (a, hi, lo))

let concat hi lo =
  let w = hi.width + lo.width in
  if w > 64 then invalid_arg "Expr.concat: result wider than 64";
  match (hi.node, lo.node) with
  | Const ch, Const cl ->
    const ~width:w (Int64.logor (Int64.shift_left ch lo.width) cl)
  | _ -> intern_bv w (Concat (hi, lo))

let zext ~width:w a =
  if w < a.width then invalid_arg "Expr.zext: narrowing";
  if w = a.width then a
  else
    match a.node with
    | Const c -> const ~width:w c
    | _ -> intern_bv w (Zext a)

let sext ~width:w a =
  if w < a.width then invalid_arg "Expr.sext: narrowing";
  if w = a.width then a
  else
    match a.node with
    | Const c -> const ~width:w (norm w (to_signed a.width c))
    | _ -> intern_bv w (Sext a)

(* Boolean layer ----------------------------------------------------- *)

let rec not_ a =
  match a.bnode with
  | True -> fls
  | False -> tru
  | Not inner -> inner
  | Cmp (Ult, x, y) -> intern_bool (Cmp (Ule, y, x))
  | Cmp (Ule, x, y) -> intern_bool (Cmp (Ult, y, x))
  | _ -> intern_bool (Not a)

and and_ a b =
  match (a.bnode, b.bnode) with
  | True, _ -> b
  | _, True -> a
  | False, _ | _, False -> fls
  | _ ->
    if a.bid = b.bid then a
    else if (not_ a).bid = b.bid then fls
    else intern_bool (And (a, b))

and or_ a b =
  match (a.bnode, b.bnode) with
  | False, _ -> b
  | _, False -> a
  | True, _ | _, True -> tru
  | _ ->
    if a.bid = b.bid then a
    else if (not_ a).bid = b.bid then tru
    else intern_bool (Or (a, b))

let implies a b = or_ (not_ a) b

let cmp op a b =
  if a.width <> b.width then
    raise (Width_mismatch (Printf.sprintf "cmp: %d vs %d" a.width b.width));
  match (a.node, b.node) with
  | Const ca, Const cb -> of_bool (eval_cmp op a.width ca cb)
  | _ ->
    if a.id = b.id then of_bool (match op with Eq | Ule | Sle -> true | Ult | Slt -> false)
    else
      (* canonical order for the symmetric comparison *)
      match op with
      | Eq when a.id > b.id -> intern_bool (Cmp (Eq, b, a))
      | _ -> intern_bool (Cmp (op, a, b))

let eq a b = cmp Eq a b
let neq a b = not_ (eq a b)
let ult a b = cmp Ult a b
let ule a b = cmp Ule a b
let ugt a b = cmp Ult b a
let uge a b = cmp Ule b a
let slt a b = cmp Slt a b
let sle a b = cmp Sle a b

let eq_const a v = eq a (const ~width:a.width v)
let neq_const a v = neq a (const ~width:a.width v)

let ite c a b =
  if a.width <> b.width then
    raise (Width_mismatch (Printf.sprintf "ite: %d vs %d" a.width b.width));
  match c.bnode with
  | True -> a
  | False -> b
  | _ -> if a.id = b.id then a else intern_bv a.width (Ite (c, a, b))

let conj = function
  | [] -> tru
  | c :: rest -> List.fold_left and_ c rest

let disj = function
  | [] -> fls
  | c :: rest -> List.fold_left or_ c rest

(* Balanced or-tree over a list of conditions, as SOFT's grouping tool
   builds: minimizes nesting depth for the downstream solver (paper §4.2). *)
let balanced_disj conds =
  match conds with
  | [] -> fls
  | _ ->
    let arr = Array.of_list conds in
    let rec build lo hi =
      if lo = hi then arr.(lo)
      else
        let mid = (lo + hi) / 2 in
        or_ (build lo mid) (build (mid + 1) hi)
    in
    build 0 (Array.length arr - 1)

let balanced_conj conds =
  match conds with
  | [] -> tru
  | _ ->
    let arr = Array.of_list conds in
    let rec build lo hi =
      if lo = hi then arr.(lo)
      else
        let mid = (lo + hi) / 2 in
        and_ (build lo mid) (build (mid + 1) hi)
    in
    build 0 (Array.length arr - 1)

(* ------------------------------------------------------------------ *)
(* Traversals *)

let rec iter_bool ~on_bv ~on_bool b =
  on_bool b;
  match b.bnode with
  | True | False -> ()
  | Cmp (_, x, y) ->
    iter_bv ~on_bv ~on_bool x;
    iter_bv ~on_bv ~on_bool y
  | Not x -> iter_bool ~on_bv ~on_bool x
  | And (x, y) | Or (x, y) ->
    iter_bool ~on_bv ~on_bool x;
    iter_bool ~on_bv ~on_bool y

and iter_bv ~on_bv ~on_bool e =
  on_bv e;
  match e.node with
  | Const _ | Var _ -> ()
  | Unop (_, a) | Extract (a, _, _) | Zext a | Sext a -> iter_bv ~on_bv ~on_bool a
  | Binop (_, a, b) | Concat (a, b) ->
    iter_bv ~on_bv ~on_bool a;
    iter_bv ~on_bv ~on_bool b
  | Ite (c, a, b) ->
    iter_bool ~on_bv ~on_bool c;
    iter_bv ~on_bv ~on_bool a;
    iter_bv ~on_bv ~on_bool b

(* Number of boolean operations in a condition: the "constraint size" metric
   of Table 2. Each comparison and connective counts as one. *)
let bool_size b =
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  let rec go x =
    if not (Hashtbl.mem seen x.bid) then begin
      Hashtbl.add seen x.bid ();
      (match x.bnode with
       | True | False -> ()
       | Cmp _ -> incr count
       | Not a ->
         incr count;
         go a
       | And (a, b) | Or (a, b) ->
         incr count;
         go a;
         go b)
    end
  in
  go b;
  !count

let vars_of_bool b =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let on_bv e =
    match e.node with
    | Var v when not (Hashtbl.mem seen v.vid) ->
      Hashtbl.add seen v.vid ();
      acc := v :: !acc
    | _ -> ()
  in
  iter_bool ~on_bv ~on_bool:(fun _ -> ()) b;
  List.rev !acc

let vars_of_bv e =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let on_bv x =
    match x.node with
    | Var v when not (Hashtbl.mem seen v.vid) ->
      Hashtbl.add seen v.vid ();
      acc := v :: !acc
    | _ -> ()
  in
  iter_bv ~on_bv ~on_bool:(fun _ -> ()) e;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Evaluation under an assignment of variable ids to concrete values. *)

let rec eval_bv lookup e =
  match e.node with
  | Const c -> c
  | Var v -> norm v.vwidth (lookup v)
  | Unop (op, a) -> eval_unop op e.width (eval_bv lookup a)
  | Binop (op, a, b) -> eval_binop op e.width (eval_bv lookup a) (eval_bv lookup b)
  | Ite (c, a, b) -> if eval_bool lookup c then eval_bv lookup a else eval_bv lookup b
  | Extract (a, hi, lo) ->
    let v = eval_bv lookup a in
    norm (hi - lo + 1) (Int64.shift_right_logical v lo)
  | Concat (a, b) ->
    Int64.logor (Int64.shift_left (eval_bv lookup a) b.width) (eval_bv lookup b)
  | Zext a -> eval_bv lookup a
  | Sext a -> norm e.width (to_signed a.width (eval_bv lookup a))

and eval_bool lookup b =
  match b.bnode with
  | True -> true
  | False -> false
  | Cmp (op, x, y) -> eval_cmp op x.width (eval_bv lookup x) (eval_bv lookup y)
  | Not x -> not (eval_bool lookup x)
  | And (x, y) -> eval_bool lookup x && eval_bool lookup y
  | Or (x, y) -> eval_bool lookup x || eval_bool lookup y

(* Memoized evaluation over the expression DAG: hash-consing shares
   subexpressions heavily, so the naive recursive [eval_bv] can revisit a
   node exponentially often.  These variants visit each node once. *)
let memo_eval lookup =
  let bv_memo : (int, int64) Hashtbl.t = Hashtbl.create 64 in
  let bool_memo : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let rec ebv e =
    match Hashtbl.find_opt bv_memo e.id with
    | Some v -> v
    | None ->
      let v =
        match e.node with
        | Const c -> c
        | Var v -> norm v.vwidth (lookup v)
        | Unop (op, a) -> eval_unop op e.width (ebv a)
        | Binop (op, a, b) -> eval_binop op e.width (ebv a) (ebv b)
        | Ite (c, a, b) -> if ebool c then ebv a else ebv b
        | Extract (a, hi, lo) -> norm (hi - lo + 1) (Int64.shift_right_logical (ebv a) lo)
        | Concat (a, b) -> Int64.logor (Int64.shift_left (ebv a) b.width) (ebv b)
        | Zext a -> ebv a
        | Sext a -> norm e.width (to_signed a.width (ebv a))
      in
      Hashtbl.add bv_memo e.id v;
      v
  and ebool b =
    match Hashtbl.find_opt bool_memo b.bid with
    | Some v -> v
    | None ->
      let v =
        match b.bnode with
        | True -> true
        | False -> false
        | Cmp (op, x, y) -> eval_cmp op x.width (ebv x) (ebv y)
        | Not x -> not (ebool x)
        | And (x, y) -> ebool x && ebool y
        | Or (x, y) -> ebool x || ebool y
      in
      Hashtbl.add bool_memo b.bid v;
      v
  in
  (ebv, ebool)

let eval_bv_memo lookup e =
  let ebv, _ = memo_eval lookup in
  ebv e

let eval_bool_memo lookup b =
  let _, ebool = memo_eval lookup in
  ebool b

(* ------------------------------------------------------------------ *)
(* Pretty printing *)

let unop_name = function Bnot -> "~" | Neg -> "-"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Andb -> "&"
  | Orb -> "|"
  | Xorb -> "^"
  | Shl -> "<<"
  | Lshr -> ">>"

let cmp_name = function
  | Eq -> "="
  | Ult -> "<u"
  | Ule -> "<=u"
  | Slt -> "<s"
  | Sle -> "<=s"

let rec pp_bv fmt e =
  match e.node with
  | Const c -> Format.fprintf fmt "0x%Lx:%d" c e.width
  | Var v -> Format.fprintf fmt "%s" v.name
  | Unop (op, a) -> Format.fprintf fmt "(%s %a)" (unop_name op) pp_bv a
  | Binop (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp_bv a (binop_name op) pp_bv b
  | Ite (c, a, b) -> Format.fprintf fmt "(ite %a %a %a)" pp_bool c pp_bv a pp_bv b
  | Extract (a, hi, lo) -> Format.fprintf fmt "%a[%d:%d]" pp_bv a hi lo
  | Concat (a, b) -> Format.fprintf fmt "(%a @@ %a)" pp_bv a pp_bv b
  | Zext a -> Format.fprintf fmt "(zext%d %a)" e.width pp_bv a
  | Sext a -> Format.fprintf fmt "(sext%d %a)" e.width pp_bv a

and pp_bool fmt b =
  match b.bnode with
  | True -> Format.fprintf fmt "true"
  | False -> Format.fprintf fmt "false"
  | Cmp (op, x, y) -> Format.fprintf fmt "(%a %s %a)" pp_bv x (cmp_name op) pp_bv y
  | Not x -> Format.fprintf fmt "(not %a)" pp_bool x
  | And (x, y) -> Format.fprintf fmt "(%a /\\ %a)" pp_bool x pp_bool y
  | Or (x, y) -> Format.fprintf fmt "(%a \\/ %a)" pp_bool x pp_bool y

let bv_to_string e = Format.asprintf "%a" pp_bv e
let bool_to_string b = Format.asprintf "%a" pp_bool b

(* Reset all global tables (tests only: invalidates existing expressions;
   never call while another domain is interning). *)
let reset_for_testing () =
  interned (fun () ->
      Hashtbl.reset var_table;
      Hashtbl.reset vars_by_id;
      Hashtbl.reset bv_table;
      Hashtbl.reset bool_table;
      var_counter := 0;
      bv_counter := 0;
      bool_counter := 0)
