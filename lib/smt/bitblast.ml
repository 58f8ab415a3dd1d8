(* Tseitin bit-blasting of bitvector expressions to CNF over a [Sat.t]
   instance.  Bit order is LSB-first throughout.  Blasting is memoized per
   expression id (hash-consing makes this effective across the shared
   sub-structure of a path condition).

   A row context ([restore]) blasts on top of a frozen template: its
   instance starts as a copy of the template's, a local miss reads the
   template's tables, and only the local ones are written. *)

type ctx = {
  sat : Sat.t;
  tru : int; (* literal fixed to true *)
  bv_memo : (int, int array) Hashtbl.t;
  bool_memo : (int, int) Hashtbl.t;
  var_bits : (int, int array) Hashtbl.t; (* Expr var id -> sat vars *)
  mutable template : ctx option; (* a row context's template, read only *)
}

(* [proof] must be decided on an empty instance: the [tru] clause below is
   already part of the CNF a DRUP checker replays, so enabling logging any
   later would leave the original-clause record incomplete.  The first
   variable of an empty instance is always 0, so [tru] is too. *)
let start sat proof =
  if proof then Sat.enable_proof sat;
  let tru = 2 * Sat.new_var sat in
  Sat.add_clause sat [ tru ];
  tru

let create ?(proof = false) () =
  let sat = Sat.create () in
  let tru = start sat proof in
  {
    sat;
    tru;
    bv_memo = Hashtbl.create 512;
    bool_memo = Hashtbl.create 512;
    var_bits = Hashtbl.create 64;
    template = None;
  }

(* Back to the state of [create ~proof ()], for a scratch solver reused
   across queries.  [Hashtbl.reset] also shrinks a table that grew back to
   its creation size: [extract_model] iterates [var_bits], and the
   iteration order depends on the bucket count. *)
let reset ?(proof = false) ctx =
  Sat.reset ctx.sat;
  Hashtbl.reset ctx.bv_memo;
  Hashtbl.reset ctx.bool_memo;
  Hashtbl.reset ctx.var_bits;
  ignore (start ctx.sat proof : int)

(* Make [row] a row context over [template], which nothing may write to
   from then on.  The local tables are cleared, not shrunk: nothing
   iterates them, and a recycled row keeps their buckets.  Both contexts'
   [tru] is variable 0. *)
let restore row ~template =
  Sat.restore row.sat ~from:template.sat;
  Hashtbl.clear row.bv_memo;
  Hashtbl.clear row.bool_memo;
  Hashtbl.clear row.var_bits;
  row.template <- Some template

(* The local table, then the template's. *)
let find ctx tbl key =
  match (Hashtbl.find_opt (tbl ctx) key, ctx.template) with
  | None, Some t -> Hashtbl.find_opt (tbl t) key
  | hit, _ -> hit

let lit_neg = Sat.lit_neg

let fls ctx = lit_neg ctx.tru

let fresh ctx = 2 * Sat.new_var ctx.sat

let is_tru ctx l = l = ctx.tru
let is_fls ctx l = l = lit_neg ctx.tru

(* --- gates ----------------------------------------------------------- *)

let g_and ctx a b =
  if is_fls ctx a || is_fls ctx b then fls ctx
  else if is_tru ctx a then b
  else if is_tru ctx b then a
  else if a = b then a
  else if a = lit_neg b then fls ctx
  else begin
    let o = fresh ctx in
    Sat.add_clause2 ctx.sat (lit_neg o) a;
    Sat.add_clause2 ctx.sat (lit_neg o) b;
    Sat.add_clause3 ctx.sat o (lit_neg a) (lit_neg b);
    o
  end

let g_or ctx a b = lit_neg (g_and ctx (lit_neg a) (lit_neg b))

let g_xor ctx a b =
  if is_fls ctx a then b
  else if is_fls ctx b then a
  else if is_tru ctx a then lit_neg b
  else if is_tru ctx b then lit_neg a
  else if a = b then fls ctx
  else if a = lit_neg b then ctx.tru
  else begin
    let o = fresh ctx in
    Sat.add_clause3 ctx.sat (lit_neg o) a b;
    Sat.add_clause3 ctx.sat (lit_neg o) (lit_neg a) (lit_neg b);
    Sat.add_clause3 ctx.sat o (lit_neg a) b;
    Sat.add_clause3 ctx.sat o a (lit_neg b);
    o
  end

let g_xnor ctx a b = lit_neg (g_xor ctx a b)

(* if c then a else b *)
let g_mux ctx c a b =
  if is_tru ctx c then a
  else if is_fls ctx c then b
  else if a = b then a
  else begin
    let o = fresh ctx in
    Sat.add_clause3 ctx.sat (lit_neg c) (lit_neg a) o;
    Sat.add_clause3 ctx.sat (lit_neg c) a (lit_neg o);
    Sat.add_clause3 ctx.sat c (lit_neg b) o;
    Sat.add_clause3 ctx.sat c b (lit_neg o);
    o
  end

let g_maj ctx a b c =
  g_or ctx (g_and ctx a b) (g_or ctx (g_and ctx a c) (g_and ctx b c))

(* --- arithmetic ------------------------------------------------------- *)

let full_adder ctx a b cin =
  let sum = g_xor ctx (g_xor ctx a b) cin in
  let cout = g_maj ctx a b cin in
  (sum, cout)

let ripple_add ctx a b cin =
  let w = Array.length a in
  let out = Array.make w (fls ctx) in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = full_adder ctx a.(i) b.(i) !carry in
    out.(i) <- s;
    carry := c
  done;
  out

let bits_of_const ctx width c =
  Array.init width (fun i ->
      if Int64.equal (Int64.logand (Int64.shift_right_logical c i) 1L) 1L then ctx.tru
      else fls ctx)

(* --- comparisons ------------------------------------------------------ *)

let blast_eq ctx a b =
  let w = Array.length a in
  let acc = ref ctx.tru in
  for i = 0 to w - 1 do
    acc := g_and ctx !acc (g_xnor ctx a.(i) b.(i))
  done;
  !acc

let blast_ult ctx a b =
  (* from LSB upward: lt_i = (¬a_i ∧ b_i) ∨ ((a_i ≡ b_i) ∧ lt_{i-1}) *)
  let w = Array.length a in
  let lt = ref (fls ctx) in
  for i = 0 to w - 1 do
    let bit_lt = g_and ctx (lit_neg a.(i)) b.(i) in
    let bit_eq = g_xnor ctx a.(i) b.(i) in
    lt := g_or ctx bit_lt (g_and ctx bit_eq !lt)
  done;
  !lt

(* signed order is unsigned order with the sign bits negated *)
let flip_sign bits =
  let n = Array.length bits in
  Array.init n (fun i -> if i = n - 1 then lit_neg bits.(i) else bits.(i))

(* --- expression blasting ---------------------------------------------- *)

let rec blast_bv ctx (e : Expr.bv) =
  match find ctx (fun c -> c.bv_memo) e.id with
  | Some bits -> bits
  | None ->
    let bits =
      match e.node with
      | Expr.Const c -> bits_of_const ctx e.width c
      | Expr.Var v ->
        let vid = Expr.var_id v in
        (match find ctx (fun c -> c.var_bits) vid with
         | Some sat_vars -> Array.map (fun sv -> 2 * sv) sat_vars
         | None ->
           let sat_vars = Array.init e.width (fun _ -> Sat.new_var ctx.sat) in
           Hashtbl.add ctx.var_bits vid sat_vars;
           Array.map (fun sv -> 2 * sv) sat_vars)
      | Expr.Unop (Expr.Bnot, a) -> Array.map lit_neg (blast_bv ctx a)
      | Expr.Unop (Expr.Neg, a) ->
        let nb = Array.map lit_neg (blast_bv ctx a) in
        ripple_add ctx nb (bits_of_const ctx e.width 0L) ctx.tru
      | Expr.Binop (op, a, b) -> blast_binop ctx op a b
      | Expr.Ite (c, a, b) ->
        let cl = blast_bool ctx c in
        let ab = blast_bv ctx a and bb = blast_bv ctx b in
        Array.init e.width (fun i -> g_mux ctx cl ab.(i) bb.(i))
      | Expr.Extract (a, hi, lo) ->
        let ab = blast_bv ctx a in
        Array.sub ab lo (hi - lo + 1)
      | Expr.Concat (high, low) ->
        Array.append (blast_bv ctx low) (blast_bv ctx high)
      | Expr.Zext a ->
        let ab = blast_bv ctx a in
        Array.init e.width (fun i -> if i < Array.length ab then ab.(i) else fls ctx)
      | Expr.Sext a ->
        let ab = blast_bv ctx a in
        let msb = ab.(Array.length ab - 1) in
        Array.init e.width (fun i -> if i < Array.length ab then ab.(i) else msb)
    in
    Hashtbl.add ctx.bv_memo e.id bits;
    bits

and blast_binop ctx op a b =
  let w = a.Expr.width in
  let ab = blast_bv ctx a and bb = blast_bv ctx b in
  match op with
  | Expr.Add -> ripple_add ctx ab bb (fls ctx)
  | Expr.Sub -> ripple_add ctx ab (Array.map lit_neg bb) ctx.tru
  | Expr.Andb -> Array.init w (fun i -> g_and ctx ab.(i) bb.(i))
  | Expr.Orb -> Array.init w (fun i -> g_or ctx ab.(i) bb.(i))
  | Expr.Xorb -> Array.init w (fun i -> g_xor ctx ab.(i) bb.(i))
  | Expr.Mul ->
    (* shift-and-add; O(w^2) gates, acceptable at protocol-field widths *)
    let acc = ref (bits_of_const ctx w 0L) in
    for i = 0 to w - 1 do
      let addend =
        Array.init w (fun j -> if j < i then fls ctx else g_and ctx bb.(i) ab.(j - i))
      in
      acc := ripple_add ctx !acc addend (fls ctx)
    done;
    !acc
  | Expr.Shl | Expr.Lshr ->
    (* barrel shifter over the shift amount's bits; amounts >= w give 0 *)
    let left = op = Expr.Shl in
    let stages = ref ab in
    let nbits = Array.length bb in
    for k = 0 to nbits - 1 do
      let shift = 1 lsl k in
      let cur = !stages in
      if shift < w then
        stages :=
          Array.init w (fun i ->
              let src = if left then i - shift else i + shift in
              let shifted = if src >= 0 && src < w then cur.(src) else fls ctx in
              g_mux ctx bb.(k) shifted cur.(i))
      else
        (* any set bit at or beyond this position zeroes the result *)
        stages := Array.map (fun bit -> g_and ctx (lit_neg bb.(k)) bit) cur
    done;
    !stages

and blast_bool ctx (b : Expr.boolean) =
  match find ctx (fun c -> c.bool_memo) b.bid with
  | Some l -> l
  | None ->
    let l =
      match b.bnode with
      | Expr.True -> ctx.tru
      | Expr.False -> fls ctx
      | Expr.Not x -> lit_neg (blast_bool ctx x)
      | Expr.And (x, y) -> g_and ctx (blast_bool ctx x) (blast_bool ctx y)
      | Expr.Or (x, y) -> g_or ctx (blast_bool ctx x) (blast_bool ctx y)
      | Expr.Cmp (op, x, y) -> (
        let xb = blast_bv ctx x and yb = blast_bv ctx y in
        match op with
        | Expr.Eq -> blast_eq ctx xb yb
        | Expr.Ult -> blast_ult ctx xb yb
        | Expr.Ule -> lit_neg (blast_ult ctx yb xb)
        | Expr.Slt -> blast_ult ctx (flip_sign xb) (flip_sign yb)
        | Expr.Sle -> lit_neg (blast_ult ctx (flip_sign yb) (flip_sign xb)))
    in
    Hashtbl.add ctx.bool_memo b.bid l;
    l

(* Assert a boolean expression as a top-level constraint. *)
let assert_bool ctx b = Sat.add_clause ctx.sat [ blast_bool ctx b ]

(* Extract concrete values for every [Expr] variable that appeared in the
   blasted constraints, reading the SAT model (a row context's own
   variables only). *)
let extract_model ctx =
  let model = Model.empty () in
  Hashtbl.iter
    (fun vid sat_vars ->
      match Expr.var_by_id vid with
      | None -> ()
      | Some var ->
        let v = ref 0L in
        Array.iteri
          (fun i sv ->
            if Sat.model_value ctx.sat sv then v := Int64.logor !v (Int64.shift_left 1L i))
          sat_vars;
        Model.set model var !v)
    ctx.var_bits;
  model
