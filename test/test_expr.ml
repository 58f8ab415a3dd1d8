(* Unit and property tests for the expression layer: hash-consing,
   constant folding, algebraic simplification, evaluation, traversal. *)

open Smt

let c w v = Expr.const ~width:w v
let x16 = Expr.var ~width:16 "tx16"
let y16 = Expr.var ~width:16 "ty16"

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let test_hash_consing () =
  check_bool "same const shares id" true (c 16 5L == c 16 5L);
  check_bool "different widths differ" true (c 16 5L != c 8 5L);
  check_bool "same var shares id" true (Expr.var ~width:16 "tx16" == x16);
  check_bool "add is interned" true (Expr.add x16 y16 == Expr.add x16 y16);
  check_bool "eq canonical order" true (Expr.eq x16 y16 == Expr.eq y16 x16)

let test_var_width_conflict () =
  Alcotest.check_raises "width conflict" (Expr.Width_mismatch "var tx16: 16 vs 8")
    (fun () -> ignore (Expr.var ~width:8 "tx16"))

let test_constant_folding () =
  check_i64 "add folds" 7L
    (Option.get (Expr.const_value (Expr.add (c 16 3L) (c 16 4L))));
  check_i64 "add wraps to width" 0L
    (Option.get (Expr.const_value (Expr.add (c 8 255L) (c 8 1L))));
  check_i64 "mul wraps" 0x56L
    (Option.get (Expr.const_value (Expr.mul (c 8 0xabL) (c 8 2L))));
  check_i64 "bnot folds" 0xfffaL
    (Option.get (Expr.const_value (Expr.bnot (c 16 5L))));
  check_i64 "neg folds" 0xfffbL (Option.get (Expr.const_value (Expr.neg (c 16 5L))));
  check_i64 "shl folds" 40L
    (Option.get (Expr.const_value (Expr.shl (c 16 5L) (c 16 3L))));
  check_i64 "shl overshift is zero" 0L
    (Option.get (Expr.const_value (Expr.shl (c 16 5L) (c 16 16L))));
  check_i64 "lshr folds" 2L
    (Option.get (Expr.const_value (Expr.lshr (c 16 5L) (c 16 1L))))

let test_identities () =
  check_bool "x + 0 = x" true (Expr.add x16 (c 16 0L) == x16);
  check_bool "x & 0 = 0" true (Expr.logand x16 (c 16 0L) == c 16 0L);
  check_bool "x & full = x" true (Expr.logand x16 (c 16 0xffffL) == x16);
  check_bool "x | 0 = x" true (Expr.logor x16 (c 16 0L) == x16);
  check_bool "x ^ x = 0" true (Expr.logxor x16 x16 == c 16 0L);
  check_bool "x - x = 0" true (Expr.sub x16 x16 == c 16 0L);
  check_bool "x * 1 = x" true (Expr.mul x16 (c 16 1L) == x16);
  check_bool "x = x folds true" true (Expr.is_true (Expr.eq x16 x16));
  check_bool "x < x folds false" true (Expr.is_false (Expr.ult x16 x16));
  check_bool "x <= x folds true" true (Expr.is_true (Expr.ule x16 x16))

let test_boolean_simplification () =
  let p = Expr.ult x16 (c 16 10L) in
  check_bool "not not p = p" true (Expr.not_ (Expr.not_ p) == p);
  check_bool "p and true = p" true (Expr.and_ p Expr.tru == p);
  check_bool "p and false = false" true (Expr.is_false (Expr.and_ p Expr.fls));
  check_bool "p or true = true" true (Expr.is_true (Expr.or_ p Expr.tru));
  check_bool "p or false = p" true (Expr.or_ p Expr.fls == p);
  check_bool "p and p = p" true (Expr.and_ p p == p);
  check_bool "p and not p = false" true (Expr.is_false (Expr.and_ p (Expr.not_ p)));
  check_bool "p or not p = true" true (Expr.is_true (Expr.or_ p (Expr.not_ p)));
  (* ¬(a < b) rewrites to b <= a *)
  check_bool "not ult is ule" true (Expr.not_ (Expr.ult x16 y16) == Expr.ule y16 x16)

let test_extract_concat () =
  let v = c 16 0xabcdL in
  check_i64 "extract low byte" 0xcdL
    (Option.get (Expr.const_value (Expr.extract ~hi:7 ~lo:0 v)));
  check_i64 "extract high byte" 0xabL
    (Option.get (Expr.const_value (Expr.extract ~hi:15 ~lo:8 v)));
  check_bool "full extract is identity" true (Expr.extract ~hi:15 ~lo:0 x16 == x16);
  check_i64 "concat" 0xabcdL
    (Option.get (Expr.const_value (Expr.concat (c 8 0xabL) (c 8 0xcdL))));
  check_int "concat width" 24 (Expr.width (Expr.concat (c 8 1L) x16));
  (* nested extract collapses *)
  let inner = Expr.extract ~hi:11 ~lo:4 x16 in
  let outer = Expr.extract ~hi:3 ~lo:0 inner in
  check_bool "extract of extract" true (outer == Expr.extract ~hi:7 ~lo:4 x16)

let test_extensions () =
  check_i64 "zext keeps value" 0xffL
    (Option.get (Expr.const_value (Expr.zext ~width:16 (c 8 0xffL))));
  check_i64 "sext extends sign" 0xffffL
    (Option.get (Expr.const_value (Expr.sext ~width:16 (c 8 0xffL))));
  check_i64 "sext positive" 0x7fL
    (Option.get (Expr.const_value (Expr.sext ~width:16 (c 8 0x7fL))));
  check_bool "zext same width is id" true (Expr.zext ~width:16 x16 == x16)

let test_signed_compare () =
  (* -1 <s 0 at width 8 *)
  check_bool "slt signed" true (Expr.is_true (Expr.slt (c 8 0xffL) (c 8 0L)));
  check_bool "ult unsigned opposite" true (Expr.is_false (Expr.ult (c 8 0xffL) (c 8 0L)));
  check_bool "sle" true (Expr.is_true (Expr.sle (c 8 0x80L) (c 8 0x7fL)))

let test_ite () =
  let p = Expr.ult x16 (c 16 10L) in
  check_bool "ite true" true (Expr.ite Expr.tru x16 y16 == x16);
  check_bool "ite false" true (Expr.ite Expr.fls x16 y16 == y16);
  check_bool "ite same arms" true (Expr.ite p x16 x16 == x16)

let test_bool_size () =
  let p = Expr.ult x16 (c 16 10L) in
  check_int "single cmp" 1 (Expr.bool_size p);
  let q = Expr.eq y16 (c 16 3L) in
  check_int "and of two" 3 (Expr.bool_size (Expr.and_ p q));
  (* shared subterms counted once *)
  check_int "shared subterm" 3 (Expr.bool_size (Expr.or_ (Expr.and_ p q) Expr.fls |> fun e -> Expr.and_ e (Expr.and_ p q)))

(* the canonical memo's size probe: capped sum, and the same cutoff answer
   as summing [bool_size] in full, at every limit including 0 *)
let prop_bool_size_upto =
  QCheck2.Test.make ~name:"bool_size_upto is the capped sum of bool_size" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 6) (Gen.width_gen >>= fun w -> Gen.bool_gen w))
        (int_range 0 100))
    (fun (bs, n) ->
      let sum = List.fold_left (fun acc b -> acc + Expr.bool_size b) 0 bs in
      Expr.bool_size_upto ~limit:n bs = min n sum
      && (Expr.bool_size_upto ~limit:n bs < n) = (sum < n))

let test_vars_of () =
  let p = Expr.and_ (Expr.ult x16 y16) (Expr.eq x16 (c 16 1L)) in
  let names = List.map Expr.var_name (Expr.vars_of_bool p) in
  check_bool "x present" true (List.mem "tx16" names);
  check_bool "y present" true (List.mem "ty16" names);
  check_int "no duplicates" 2 (List.length names)

let test_balanced_trees () =
  let conds = List.init 9 (fun i -> Expr.eq x16 (c 16 (Int64.of_int i))) in
  let d = Expr.balanced_disj conds in
  let cj = Expr.balanced_conj conds in
  (* semantics: disjunction true iff one disjunct; conj needs all *)
  let under v b = Expr.eval_bool (fun _ -> v) b in
  check_bool "disj true at member" true (under 4L d);
  check_bool "disj false outside" false (under 100L d);
  check_bool "conj of incompatible eqs is never true" false (under 4L cj);
  check_bool "empty disj is false" true (Expr.is_false (Expr.balanced_disj []));
  check_bool "empty conj is true" true (Expr.is_true (Expr.balanced_conj []))

let test_eval () =
  let lookup v = if Expr.var_name v = "tx16" then 7L else 100L in
  let e = Expr.add (Expr.mul x16 (c 16 3L)) y16 in
  check_i64 "eval" 121L (Expr.eval_bv lookup e);
  check_i64 "memo eval agrees" 121L (Expr.eval_bv_memo lookup e);
  check_bool "bool eval" true (Expr.eval_bool lookup (Expr.ult x16 y16))

(* property: every simplification preserves semantics — compare the smart
   constructor result against direct semantic evaluation *)
let prop_binop_semantics =
  QCheck2.Test.make ~name:"binop smart constructors preserve semantics" ~count:500
    QCheck2.Gen.(
      let* w = Gen.width_gen in
      let* e = Gen.bv_gen w in
      let+ assignment = Gen.assignment_gen w in
      (w, e, assignment))
    (fun (_w, e, assignment) ->
      let lookup v =
        match
          List.find_opt (fun (ev, _) -> Expr.vars_of_bv ev = [ v ]) assignment
        with
        | Some (_, value) -> value
        | None -> 0L
      in
      Expr.eval_bv lookup e = Expr.eval_bv_memo lookup e)

let prop_mask_norm =
  QCheck2.Test.make ~name:"constants are normalized to width" ~count:500
    QCheck2.Gen.(
      let* w = Gen.width_gen in
      let+ v = map Int64.of_int (int_range 0 max_int) in
      (w, v))
    (fun (w, v) ->
      match Expr.const_value (Expr.const ~width:w v) with
      | Some stored -> Int64.unsigned_compare stored (Expr.mask w) <= 0
      | None -> false)

let prop_not_involutive =
  QCheck2.Test.make ~name:"not is involutive semantically" ~count:300
    QCheck2.Gen.(
      let* w = Gen.width_gen in
      let* b = Gen.bool_gen w in
      let+ assignment = Gen.assignment_gen w in
      (b, assignment))
    (fun (b, assignment) ->
      let m = Gen.model_of_assignment assignment in
      Model.eval_bool m (Expr.not_ (Expr.not_ b)) = Model.eval_bool m b)

let prop_demorgan =
  QCheck2.Test.make ~name:"De Morgan holds semantically" ~count:300
    QCheck2.Gen.(
      let* w = Gen.width_gen in
      let* a = Gen.bool_gen w in
      let* b = Gen.bool_gen w in
      let+ assignment = Gen.assignment_gen w in
      (a, b, assignment))
    (fun (a, b, assignment) ->
      let m = Gen.model_of_assignment assignment in
      Model.eval_bool m (Expr.not_ (Expr.and_ a b))
      = Model.eval_bool m (Expr.or_ (Expr.not_ a) (Expr.not_ b)))

let suite =
  [
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "var width conflict" `Quick test_var_width_conflict;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "algebraic identities" `Quick test_identities;
    Alcotest.test_case "boolean simplification" `Quick test_boolean_simplification;
    Alcotest.test_case "extract and concat" `Quick test_extract_concat;
    Alcotest.test_case "zext and sext" `Quick test_extensions;
    Alcotest.test_case "signed comparisons" `Quick test_signed_compare;
    Alcotest.test_case "ite" `Quick test_ite;
    Alcotest.test_case "bool_size metric" `Quick test_bool_size;
    Alcotest.test_case "vars_of_bool" `Quick test_vars_of;
    Alcotest.test_case "balanced or/and trees" `Quick test_balanced_trees;
    Alcotest.test_case "evaluation" `Quick test_eval;
    QCheck_alcotest.to_alcotest prop_bool_size_upto;
    QCheck_alcotest.to_alcotest prop_binop_semantics;
    QCheck_alcotest.to_alcotest prop_mask_norm;
    QCheck_alcotest.to_alcotest prop_not_involutive;
    QCheck_alcotest.to_alcotest prop_demorgan;
  ]
