(* Semantic query canonicalization: the α-invariance of the canonical
   key, the solver's canonical memo layer (Unsat transfers, Sat replays
   its witness, certify never trusts a hit without replay), and an
   8-seed chaos sweep over the crosscheck where verdicts may only
   degrade to undecided. *)

open Smt
module Chaos = Harness.Chaos
module Runner = Harness.Runner
module Test_spec = Harness.Test_spec
module Trace = Openflow.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_clean_world f =
  Fun.protect
    ~finally:(fun () ->
      Chaos.deactivate ();
      Mono.reset_skew ();
      Solver.set_certify false;
      Solver.set_canon true;
      Solver.set_canon_threshold Solver.default_canon_threshold;
      Solver.set_default_budget Solver.no_budget;
      Solver.clear_cache ())
    f

(* --- α-renaming over the hash-consed DAG ------------------------------- *)

(* Rebuild a formula with every variable [v] replaced by [sub v].  Smart
   constructors re-apply the same deterministic folds, so a pure renaming
   yields a structurally identical term over fresh variables — exactly
   the α-variant the canonical key must not distinguish. *)
let rec rename_bv sub (e : Expr.bv) : Expr.bv =
  match e.Expr.node with
  | Expr.Const c -> Expr.const ~width:e.Expr.width c
  | Expr.Var v -> sub v
  | Expr.Unop (op, a) -> Expr.unop op (rename_bv sub a)
  | Expr.Binop (op, a, b) -> Expr.binop op (rename_bv sub a) (rename_bv sub b)
  | Expr.Ite (c, t, f) ->
    Expr.ite (rename_bool sub c) (rename_bv sub t) (rename_bv sub f)
  | Expr.Extract (a, hi, lo) -> Expr.extract ~hi ~lo (rename_bv sub a)
  | Expr.Concat (h, l) -> Expr.concat (rename_bv sub h) (rename_bv sub l)
  | Expr.Zext a -> Expr.zext ~width:e.Expr.width (rename_bv sub a)
  | Expr.Sext a -> Expr.sext ~width:e.Expr.width (rename_bv sub a)

and rename_bool sub (b : Expr.boolean) : Expr.boolean =
  match b.Expr.bnode with
  | Expr.True -> Expr.tru
  | Expr.False -> Expr.fls
  | Expr.Cmp (op, x, y) -> Expr.cmp op (rename_bv sub x) (rename_bv sub y)
  | Expr.Not x -> Expr.not_ (rename_bool sub x)
  | Expr.And (x, y) -> Expr.and_ (rename_bool sub x) (rename_bool sub y)
  | Expr.Or (x, y) -> Expr.or_ (rename_bool sub x) (rename_bool sub y)

let prefixed prefix v =
  Expr.var ~width:(Expr.var_width v) (prefix ^ "." ^ Expr.var_name v)

(* --- randomized formulas over a small shared pool ---------------------- *)

let pool = lazy (List.map (fun n -> Expr.var ~width:8 ("cn." ^ n)) [ "x"; "y"; "z" ])

let rec random_bv rng depth =
  if depth = 0 || Random.State.int rng 3 = 0 then
    if Random.State.bool rng then
      List.nth (Lazy.force pool) (Random.State.int rng 3)
    else Expr.const ~width:8 (Int64.of_int (Random.State.int rng 256))
  else
    match Random.State.int rng 6 with
    | 0 -> Expr.add (random_bv rng (depth - 1)) (random_bv rng (depth - 1))
    | 1 -> Expr.mul (random_bv rng (depth - 1)) (random_bv rng (depth - 1))
    | 2 -> Expr.logand (random_bv rng (depth - 1)) (random_bv rng (depth - 1))
    | 3 -> Expr.logxor (random_bv rng (depth - 1)) (random_bv rng (depth - 1))
    | 4 -> Expr.bnot (random_bv rng (depth - 1))
    | _ ->
      Expr.ite (random_cond rng (depth - 1))
        (random_bv rng (depth - 1))
        (random_bv rng (depth - 1))

and random_cond rng depth =
  let x = random_bv rng depth and y = random_bv rng depth in
  match Random.State.int rng 5 with
  | 0 -> Expr.eq x y
  | 1 -> Expr.ult x y
  | 2 -> Expr.not_ (Expr.ule x y)
  | 3 when depth > 0 -> Expr.and_ (Expr.eq x y) (random_cond rng (depth - 1))
  | 4 when depth > 0 -> Expr.or_ (Expr.ult x y) (random_cond rng (depth - 1))
  | _ -> Expr.ule x y

let random_conds rng =
  List.init (1 + Random.State.int rng 3) (fun _ -> random_cond rng (1 + Random.State.int rng 2))

(* --- the canonical key itself ------------------------------------------ *)

let test_alpha_renaming_shares_key () =
  let rng = Random.State.make [| 7 |] in
  for i = 1 to 25 do
    let conds = random_conds rng in
    let key, ren = Canon.of_conds conds in
    let renamed = List.map (rename_bool (prefixed (Printf.sprintf "r%d" i))) conds in
    let key', ren' = Canon.of_conds renamed in
    check_string (Printf.sprintf "iteration %d: α-renaming preserves the key" i) key key';
    check_int
      (Printf.sprintf "iteration %d: same number of variable slots" i)
      (Canon.slot_count ren) (Canon.slot_count ren');
    (* a genuinely different query must not collide *)
    let x = List.hd (Lazy.force pool) in
    check_bool
      (Printf.sprintf "iteration %d: distinct constants give distinct keys" i)
      false
      (Canon.key_of_conds (Expr.eq_const x 77L :: conds)
      = Canon.key_of_conds (Expr.eq_const x 78L :: conds))
  done

let test_canonicalization_idempotent () =
  let rng = Random.State.make [| 11 |] in
  for i = 1 to 25 do
    let conds = random_conds rng in
    let k1 = Canon.key_of_conds conds in
    let k2 = Canon.key_of_conds conds in
    check_string (Printf.sprintf "iteration %d: deterministic across calls" i) k1 k2;
    check_string
      (Printf.sprintf "iteration %d: of_conds and key_of_conds agree" i)
      k1
      (fst (Canon.of_conds conds))
  done

let test_shape_invariances () =
  let x = Expr.var ~width:8 "ci.x"
  and y = Expr.var ~width:8 "ci.y"
  and z = Expr.var ~width:8 "ci.z" in
  let a = Expr.ult x y and b = Expr.eq_const y 4L and c = Expr.ule z x in
  check_string "conjunct order is irrelevant"
    (Canon.key_of_conds [ a; b; c ])
    (Canon.key_of_conds [ c; a; b ]);
  check_string "a conjunction flattens into the conjunct list"
    (Canon.key_of_conds [ a; b; c ])
    (Canon.key_of_conds [ Expr.and_ a (Expr.and_ b c) ]);
  let ms = [ a; b; c; Expr.ugt x z; Expr.eq x (Expr.add y z) ] in
  check_string "disjunction reassociation is invisible"
    (Canon.key_of_conds [ Expr.disj ms ])
    (Canon.key_of_conds [ Expr.balanced_disj ms ]);
  check_string "double negation cancels"
    (Canon.key_of_conds [ a ])
    (Canon.key_of_conds [ Expr.not_ (Expr.not_ a) ]);
  check_string "De Morgan: ¬(a ∨ b) has the key of ¬a ∧ ¬b"
    (Canon.key_of_conds [ Expr.not_ (Expr.or_ a b) ])
    (Canon.key_of_conds [ Expr.not_ a; Expr.not_ b ]);
  check_string "commutative operands reorder freely"
    (Canon.key_of_conds [ Expr.eq (Expr.add x y) z ])
    (Canon.key_of_conds [ Expr.eq z (Expr.add y x) ])

(* --- the solver's canonical memo layer --------------------------------- *)

let test_unsat_transfers_across_renaming () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      (* the probe queries here are deliberately tiny; disable the
         small-query skip so they reach the canonical layer under test *)
      Solver.set_canon_threshold 0;
      Solver.clear_cache ();
      let st = Solver.stats () in
      (* interval filter off: the conflicting constants would be refuted
         before the canonical lookup runs, and this test targets the
         canonical layer alone *)
      let unsat_pair v = [ Expr.eq_const v 3L; Expr.eq_const v 5L ] in
      let x = Expr.var ~width:8 "ct.x" in
      check_bool "original query is unsat" true
        (Solver.check ~use_interval:false (unsat_pair x) = Solver.Unsat);
      let c0 = st.Solver.canonical_hits and s0 = st.Solver.sat_calls in
      let y = Expr.var ~width:8 "ct.y" in
      check_bool "renamed query answered unsat" true
        (Solver.check ~use_interval:false (unsat_pair y) = Solver.Unsat);
      check_int "the α-variant hit the canonical memo" (c0 + 1) st.Solver.canonical_hits;
      check_int "an unsat transfer costs no SAT call" s0 st.Solver.sat_calls;
      (* reassociated variant: conjunction vs two-element list *)
      let z = Expr.var ~width:8 "ct.z" in
      check_bool "conjoined variant answered unsat" true
        (Solver.check ~use_interval:false
           [ Expr.and_ (Expr.eq_const z 3L) (Expr.eq_const z 5L) ]
        = Solver.Unsat);
      check_int "the reassociated variant hit too" (c0 + 2) st.Solver.canonical_hits;
      (* --no-canon: same query shape must now miss *)
      Solver.set_canon false;
      let w = Expr.var ~width:8 "ct.w" in
      check_bool "canon off: still answered (by the solver)" true
        (Solver.check ~use_interval:false (unsat_pair w) = Solver.Unsat);
      check_int "canon off: no canonical hit recorded" (c0 + 2) st.Solver.canonical_hits;
      Solver.set_canon true)

let test_sat_hit_replays_witness () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      Solver.set_canon_threshold 0;
      Solver.clear_cache ();
      let st = Solver.stats () in
      let query a b =
        [ Expr.ult a b; Expr.eq_const (Expr.logand a b) 0L; Expr.neq_const a 0L ]
      in
      let x = Expr.var ~width:8 "cs.x" and y = Expr.var ~width:8 "cs.y" in
      (match Solver.check (query x y) with
      | Solver.Sat _ -> ()
      | _ -> Alcotest.fail "original query should be sat");
      let c0 = st.Solver.canonical_hits and s0 = st.Solver.sat_calls in
      let a = Expr.var ~width:8 "cs.a" and b = Expr.var ~width:8 "cs.b" in
      let m2 =
        match Solver.check (query a b) with
        | Solver.Sat m -> m
        | _ -> Alcotest.fail "renamed query should be sat"
      in
      check_int "the α-variant hit the canonical memo" (c0 + 1) st.Solver.canonical_hits;
      check_int "a sat hit replays through the scratch core" (s0 + 1) st.Solver.sat_calls;
      check_bool "the published witness satisfies the query" true
        (Model.satisfies m2 (query a b));
      (* byte-identity: the witness must be exactly what a fresh, uncached
         solve of the same query would publish *)
      let m3 =
        match Solver.check ~use_cache:false (query a b) with
        | Solver.Sat m -> m
        | _ -> Alcotest.fail "uncached replay should be sat"
      in
      check_bool "witness identical to a fresh solve" true
        (Model.bindings m2 = Model.bindings m3))

let test_certify_never_trusts_canonical_hit () =
  with_clean_world (fun () ->
      Solver.set_certify true;
      Solver.set_canon_threshold 0;
      Solver.clear_cache ();
      let st = Solver.stats () in
      let unsat_pair v = [ Expr.eq_const v 9L; Expr.eq_const v 12L ] in
      let x = Expr.var ~width:8 "cc.x" in
      let p0 = st.Solver.proofs_checked in
      check_bool "certified original is unsat" true
        (Solver.check (unsat_pair x) = Solver.Unsat);
      check_int "the original unsat carried a checked proof" (p0 + 1) st.Solver.proofs_checked;
      let c1 = st.Solver.canonical_hits and p1 = st.Solver.proofs_checked in
      let y = Expr.var ~width:8 "cc.y" in
      check_bool "certified α-variant is unsat" true
        (Solver.check (unsat_pair y) = Solver.Unsat);
      check_int "the hit was recognized" (c1 + 1) st.Solver.canonical_hits;
      check_int "but the verdict still came from a checked proof" (p1 + 1)
        st.Solver.proofs_checked)

(* --- crosscheck under chaos ------------------------------------------ *)

let grouped_runs () =
  let spec = Test_spec.packet_out () in
  let run_a = Runner.execute ~max_paths:60 Switches.Reference_switch.agent spec in
  let run_b = Runner.execute ~max_paths:60 Switches.Modified_switch.agent spec in
  (Soft.Grouping.of_run run_a, Soft.Grouping.of_run run_b)

let inconsistency_keys (o : Soft.Crosscheck.outcome) =
  List.map
    (fun (i : Soft.Crosscheck.inconsistency) ->
      (Trace.result_key i.Soft.Crosscheck.i_result_a, Trace.result_key i.Soft.Crosscheck.i_result_b))
    o.Soft.Crosscheck.o_inconsistencies

let test_chaos_sweep_only_degrades () =
  (* faults injected into the pairwise solves may cost verdicts, never
     invent them: every inconsistency reported under
     chaos exists in the clean run, and anything lost shows up as
     undecided *)
  with_clean_world (fun () ->
      Solver.set_certify false;
      let a, b = grouped_runs () in
      Solver.clear_cache ();
      let clean = Soft.Crosscheck.check ~jobs:1 a b in
      let clean_keys = inconsistency_keys clean in
      check_bool "clean run finds inconsistencies" true (Soft.Crosscheck.count clean > 0);
      for seed = 1 to 8 do
        Solver.clear_cache ();
        Mono.reset_skew ();
        Chaos.install (Chaos.plan ~seed ~rate:0.3 ());
        let chaotic = Soft.Crosscheck.check ~jobs:1 a b in
        Chaos.deactivate ();
        Mono.reset_skew ();
        let msg s = Printf.sprintf "chaos seed %d: %s" seed s in
        List.iter
          (fun k ->
            check_bool (msg "no inconsistency is invented under chaos") true
              (List.mem k clean_keys))
          (inconsistency_keys chaotic);
        check_bool (msg "lost verdicts degrade to undecided, never vanish") true
          (Soft.Crosscheck.count clean - Soft.Crosscheck.count chaotic
          <= Soft.Crosscheck.undecided_count chaotic);
        check_int (msg "the pair matrix is fully accounted")
          clean.Soft.Crosscheck.o_pairs_checked chaotic.Soft.Crosscheck.o_pairs_checked
      done)

let suite =
  [
    ("α-renamed queries share a canonical key", `Quick, test_alpha_renaming_shares_key);
    ("canonicalization is idempotent and deterministic", `Quick, test_canonicalization_idempotent);
    ("reassociation, negation and commutation invariances", `Quick, test_shape_invariances);
    ("unsat verdicts transfer across renamings", `Quick, test_unsat_transfers_across_renaming);
    ("sat hits replay and publish the scratch witness", `Quick, test_sat_hit_replays_witness);
    ("certify never trusts a canonical hit without replay", `Quick,
     test_certify_never_trusts_canonical_hit);
    ("chaos sweep over the crosscheck only grows undecided", `Quick,
     test_chaos_sweep_only_degrades);
  ]
