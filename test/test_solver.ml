(* Tests for the solver stack: SAT core, bit-blasting, interval pre-filter
   and the frontend.  The central property: [Solver.check] agrees with
   brute-force/semantic evaluation, and every SAT answer carries a genuine
   model. *)

open Smt

let c w v = Expr.const ~width:w (Int64.of_int v)
let sat conds =
  match Solver.check ~use_cache:false conds with
  | Solver.Sat _ -> true
  | Solver.Unsat -> false
  | Solver.Unknown _ -> Alcotest.fail "unbudgeted query returned Unknown"

let model conds =
  match Solver.check ~use_cache:false conds with
  | Solver.Sat m -> m
  | Solver.Unsat -> Alcotest.fail "expected SAT"
  | Solver.Unknown _ -> Alcotest.fail "unbudgeted query returned Unknown"

let check_bool = Alcotest.(check bool)

(* --- SAT core ------------------------------------------------------- *)

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ 2 * a; 2 * b ];
  Sat.add_clause s [ (2 * a) + 1 ];
  check_bool "sat" true (Sat.solve s = Sat.Sat);
  check_bool "a false" false (Sat.model_value s a);
  check_bool "b true" true (Sat.model_value s b)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ 2 * a ];
  Sat.add_clause s [ (2 * a) + 1 ];
  check_bool "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_pigeonhole () =
  (* 4 pigeons, 3 holes: classic small UNSAT needing real conflict analysis *)
  let s = Sat.create () in
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
  for p = 0 to 3 do
    Sat.add_clause s (List.init 3 (fun h -> 2 * v.(p).(h)))
  done;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        Sat.add_clause s [ (2 * v.(p1).(h)) + 1; (2 * v.(p2).(h)) + 1 ]
      done
    done
  done;
  check_bool "pigeonhole unsat" true (Sat.solve s = Sat.Unsat)

(* Clause construction: every entry point ([add_clause] and the
   fixed-arity [add_clause2]/[add_clause3]) normalises the same way.
   [add] receives each clause as a list and picks the entry. *)
let normalisation_scenario add =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
  let pos v = 2 * v and neg v = (2 * v) + 1 in
  let stored msg n =
    let _, _, _, nclauses = Sat.stats s in
    Alcotest.(check int) msg n nclauses
  in
  add s [ pos a; pos a ];
  stored "duplicates collapse to a unit, enqueued not stored" 0;
  add s [ pos b; neg b ];
  stored "tautology dropped" 0;
  add s [ neg c; neg a; pos b ];
  stored "level-0-false literal removed, binary stored" 1;
  add s [ pos a; neg c ];
  stored "clause satisfied at level 0 dropped" 1;
  add s [ neg b; neg a ];
  stored "level-0-false literal removed, unit enqueued" 1;
  check_bool "sat" true (Sat.solve s = Sat.Sat);
  check_bool "a" true (Sat.model_value s a);
  check_bool "b" false (Sat.model_value s b);
  check_bool "c" false (Sat.model_value s c);
  add s [ neg a; pos b ];
  stored "empty clause stores nothing" 1;
  check_bool "empty clause: unsat" true (Sat.solve s = Sat.Unsat);
  add s [ pos c; pos c ];
  check_bool "stays unsat" true (Sat.solve s = Sat.Unsat)

let add_fixed s = function
  | [ x; y ] -> Sat.add_clause2 s x y
  | [ x; y; z ] -> Sat.add_clause3 s x y z
  | lits -> Sat.add_clause s lits

let test_clause_normalisation () =
  normalisation_scenario Sat.add_clause;
  normalisation_scenario add_fixed;
  (* every two-literal clause through add_clause3, with a duplicate *)
  normalisation_scenario (fun s -> function
    | [ x; y ] -> Sat.add_clause3 s x y x
    | lits -> add_fixed s lits)

let test_original_clauses_as_given () =
  let s = Sat.create () in
  Sat.enable_proof s;
  let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
  let clauses =
    [
      [| 2 * c; (2 * a) + 1 |];
      [| 2 * b; 2 * b; (2 * a) + 1 |];
      [| (2 * a) + 1; 2 * a |] (* tautology, dropped from the database *);
      [| 2 * a |];
      [| (2 * c) + 1; 2 * b; (2 * a) + 1 |];
      [| 2 * a; 2 * b; 2 * c |] (* satisfied at level 0 *);
    ]
  in
  List.iter
    (fun cl ->
      match cl with
      | [| x; y |] -> Sat.add_clause2 s x y
      | [| x; y; z |] -> Sat.add_clause3 s x y z
      | _ -> Sat.add_clause s (Array.to_list cl))
    clauses;
  check_bool "caller's literal order, every clause" true (Sat.original_clauses s = clauses)

(* differential: the list path and the fixed-arity path build the same
   instance — same database size after every clause, same search, same
   model, same proof record *)
let prop_fixed_arity_matches_list =
  QCheck2.Test.make ~name:"add_clause2/3 build what add_clause builds" ~count:200
    QCheck2.Gen.(
      let* nvars = int_range 1 6 in
      let+ clauses =
        list_size (int_range 1 30)
          (list_size (int_range 1 3)
             (let* v = int_range 0 (nvars - 1) in
              let+ sign = bool in
              (2 * v) + if sign then 1 else 0))
      in
      (nvars, clauses))
    (fun (nvars, clauses) ->
      let build add =
        let s = Sat.create () in
        Sat.enable_proof s;
        for _ = 1 to nvars do
          ignore (Sat.new_var s)
        done;
        let sizes = List.map (fun cl -> add s cl; Sat.stats s) clauses in
        let r = Sat.solve s in
        (sizes, r, List.init nvars (Sat.model_value s), Sat.stats s, Sat.original_clauses s)
      in
      let ((_, _, _, _, orig) as l) = build Sat.add_clause in
      l = build add_fixed && orig = List.map Array.of_list clauses)

let prop_sat_vs_bruteforce =
  (* random small CNF vs exhaustive enumeration *)
  QCheck2.Test.make ~name:"CDCL agrees with brute force on small CNF" ~count:200
    QCheck2.Gen.(
      let* nvars = int_range 1 8 in
      let+ clauses =
        list_size (int_range 1 20)
          (list_size (int_range 1 3)
             (let* v = int_range 0 (nvars - 1) in
              let+ sign = bool in
              (2 * v) + if sign then 1 else 0))
      in
      (nvars, clauses))
    (fun (nvars, clauses) ->
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      List.iter (Sat.add_clause s) clauses;
      let got = Sat.solve s = Sat.Sat in
      let brute =
        let ok = ref false in
        for assign = 0 to (1 lsl nvars) - 1 do
          let lit_true l =
            let v = l lsr 1 in
            let value = (assign lsr v) land 1 = 1 in
            if l land 1 = 1 then not value else value
          in
          if List.for_all (List.exists lit_true) clauses then ok := true
        done;
        !ok
      in
      got = brute)

(* --- bitvector layer -------------------------------------------------- *)

let test_arith_solving () =
  let x = Expr.var ~width:16 "sx" and y = Expr.var ~width:16 "sy" in
  (* the extra bound removes the second mod-2^16 solution *)
  let m =
    model
      [
        Expr.eq (Expr.add x y) (c 16 1000);
        Expr.eq (Expr.sub x y) (c 16 100);
        Expr.ult x (c 16 1000);
      ]
  in
  Alcotest.(check int64) "x" 550L (Model.get m (Expr.make_var "sx" 16));
  Alcotest.(check int64) "y" 450L (Model.get m (Expr.make_var "sy" 16))

let test_unsat_range () =
  let x = Expr.var ~width:16 "sz" in
  check_bool "x<10 and x>20 unsat" false
    (sat [ Expr.ult x (c 16 10); Expr.ugt x (c 16 20) ]);
  check_bool "x=5 and x=6 unsat" false
    (sat [ Expr.eq x (c 16 5); Expr.eq x (c 16 6) ]);
  check_bool "x<=5 or-free sat" true (sat [ Expr.ule x (c 16 5) ])

let test_mul_inverse () =
  let z = Expr.var ~width:8 "sm" in
  let m = model [ Expr.eq (Expr.mul z (c 8 5)) (c 8 35); Expr.ult z (c 8 16) ] in
  Alcotest.(check int64) "z" 7L (Model.get m (Expr.make_var "sm" 8))

let test_symbolic_shift () =
  let n = Expr.var ~width:32 "sn" in
  (* 0xffffffff << n = 0xffffff00  =>  n = 8 *)
  let mask = Expr.const ~width:32 0xffffffffL in
  let m = model [ Expr.eq (Expr.shl mask n) (Expr.const ~width:32 0xffffff00L) ] in
  Alcotest.(check int64) "n" 8L (Model.get m (Expr.make_var "sn" 32));
  (* n >= 32 zeroes the mask *)
  check_bool "overshift" true
    (sat [ Expr.eq (Expr.shl mask n) (Expr.const ~width:32 0L); Expr.uge n (c 32 32) ])

let test_extract_concat_solving () =
  let x = Expr.var ~width:16 "se" in
  let hi = Expr.extract ~hi:15 ~lo:8 x and lo = Expr.extract ~hi:7 ~lo:0 x in
  let m = model [ Expr.eq hi (c 8 0xab); Expr.eq lo (c 8 0xcd) ] in
  Alcotest.(check int64) "x from bytes" 0xabcdL (Model.get m (Expr.make_var "se" 16));
  check_bool "concat of extracts = x" true
    (not (sat [ Expr.neq (Expr.concat hi lo) x ]))

let test_ite_solving () =
  let x = Expr.var ~width:8 "si" in
  let e = Expr.ite (Expr.ult x (c 8 10)) (c 8 1) (c 8 2) in
  let m = model [ Expr.eq e (c 8 1) ] in
  check_bool "model obeys guard" true
    (Int64.unsigned_compare (Model.get m (Expr.make_var "si" 8)) 10L < 0);
  check_bool "e=3 impossible" false (sat [ Expr.eq e (c 8 3) ])

let test_signed_solving () =
  let x = Expr.var ~width:8 "ss" in
  (* x <s 0 forces the sign bit *)
  let m = model [ Expr.slt x (c 8 0) ] in
  check_bool "sign bit set" true
    (Int64.logand (Model.get m (Expr.make_var "ss" 8)) 0x80L = 0x80L)

let test_entails () =
  let x = Expr.var ~width:16 "sv" in
  let pc = [ Expr.ult x (c 16 10) ] in
  check_bool "x<10 entails x<20" true (Solver.entails pc (Expr.ult x (c 16 20)));
  check_bool "x<10 does not entail x<5" false (Solver.entails pc (Expr.ult x (c 16 5)))

(* Every SAT answer's model satisfies the query (on random queries). *)
let prop_model_soundness =
  QCheck2.Test.make ~name:"SAT models satisfy the query" ~count:150
    QCheck2.Gen.(
      let* w = oneofl [ 4; 8; 16 ] in
      let+ conds = list_size (int_range 1 4) (Gen.bool_gen ~max_depth:2 w) in
      conds)
    (fun conds ->
      match Solver.check ~use_cache:false conds with
      | Solver.Unsat -> true
      | Solver.Sat m -> Model.satisfies m conds
      | Solver.Unknown _ -> false)

(* Agreement with brute force over one small variable. *)
let prop_vs_enumeration =
  QCheck2.Test.make ~name:"solver agrees with enumeration at width 4" ~count:150
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 3) (Gen.bool_gen ~max_depth:2 4))
    (fun conds ->
      let vars =
        List.sort_uniq compare (List.concat_map Expr.vars_of_bool conds)
      in
      match vars with
      | [] | _ :: _ :: _ :: _ :: _ -> QCheck2.assume_fail ()
      | _ ->
        let n = List.length vars in
        let brute =
          let found = ref false in
          for assign = 0 to (1 lsl (4 * n)) - 1 do
            let lookup v =
              match List.find_index (fun u -> Expr.var_id u = Expr.var_id v) vars with
              | Some i -> Int64.of_int ((assign lsr (4 * i)) land 0xf)
              | None -> 0L
            in
            if List.for_all (Expr.eval_bool lookup) conds then found := true
          done;
          !found
        in
        sat conds = brute)

(* Interval filter soundness: whenever the interval domain says UNSAT, the
   full solver agrees. *)
let prop_interval_sound =
  QCheck2.Test.make ~name:"interval UNSAT implies solver UNSAT" ~count:300
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 5) (Gen.bool_gen ~max_depth:1 8))
    (fun conds ->
      match Interval.check conds with
      | Interval.Unknown -> true
      | Interval.Unsat -> not (sat conds))

let test_interval_units () =
  let x = Expr.var ~width:16 "iv" in
  let chk conds = Interval.check conds in
  check_bool "contradictory eq" true
    (chk [ Expr.eq x (c 16 5); Expr.eq x (c 16 6) ] = Interval.Unsat);
  check_bool "range clash" true
    (chk [ Expr.ult x (c 16 10); Expr.uge x (c 16 10) ] = Interval.Unsat);
  check_bool "masked bits clash" true
    (chk
       [
         Expr.eq (Expr.logand x (c 16 0xf)) (c 16 0xf);
         Expr.eq (Expr.logand x (c 16 0x1)) (c 16 0);
       ]
    = Interval.Unsat);
  check_bool "neq kills singleton" true
    (chk [ Expr.eq x (c 16 5); Expr.neq x (c 16 5) ] = Interval.Unsat);
  check_bool "satisfiable stays unknown" true
    (chk [ Expr.ult x (c 16 10) ] = Interval.Unknown);
  (* unrecognized constraint shapes must not produce UNSAT *)
  let y = Expr.var ~width:16 "iw" in
  check_bool "cross-variable is unknown" true
    (chk [ Expr.eq (Expr.add x y) (c 16 3) ] = Interval.Unknown)

let test_solver_cache () =
  Solver.clear_cache ();
  Solver.reset_stats ();
  let x = Expr.var ~width:16 "cachex" in
  let q = [ Expr.ult x (c 16 10) ] in
  ignore (Solver.check q);
  let calls_before = (Solver.stats ()).Solver.sat_calls in
  ignore (Solver.check q);
  Alcotest.(check int) "second query cached" calls_before (Solver.stats ()).Solver.sat_calls

let suite =
  [
    Alcotest.test_case "sat basic" `Quick test_sat_basic;
    Alcotest.test_case "sat unsat" `Quick test_sat_unsat;
    Alcotest.test_case "sat pigeonhole" `Quick test_sat_pigeonhole;
    QCheck_alcotest.to_alcotest prop_sat_vs_bruteforce;
    Alcotest.test_case "clause normalisation, every entry" `Quick test_clause_normalisation;
    Alcotest.test_case "original clauses as given" `Quick test_original_clauses_as_given;
    QCheck_alcotest.to_alcotest prop_fixed_arity_matches_list;
    Alcotest.test_case "arithmetic system" `Quick test_arith_solving;
    Alcotest.test_case "unsat ranges" `Quick test_unsat_range;
    Alcotest.test_case "multiplication inverse" `Quick test_mul_inverse;
    Alcotest.test_case "symbolic shifts" `Quick test_symbolic_shift;
    Alcotest.test_case "extract/concat" `Quick test_extract_concat_solving;
    Alcotest.test_case "ite" `Quick test_ite_solving;
    Alcotest.test_case "signed constraints" `Quick test_signed_solving;
    Alcotest.test_case "entailment" `Quick test_entails;
    QCheck_alcotest.to_alcotest prop_model_soundness;
    QCheck_alcotest.to_alcotest prop_vs_enumeration;
    QCheck_alcotest.to_alcotest prop_interval_sound;
    Alcotest.test_case "interval units" `Quick test_interval_units;
    Alcotest.test_case "query cache" `Quick test_solver_cache;
  ]
