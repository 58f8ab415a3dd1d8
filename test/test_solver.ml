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

(* Search pins: the exact search the CDCL core makes on three fixed CNFs.
   Conflicts, propagations and decisions move with any change in variable
   numbering, clause order, watch order or conflict analysis, so a
   rewrite of the core that claims to be search-preserving fails here and
   not only in a report digest.  The figures were recorded on the
   record-and-list core that the flat clause arena replaced. *)

let pigeonhole_cnf pigeons holes =
  let var p h = (p * holes) + h in
  let each_pigeon = List.init pigeons (fun p -> List.init holes (fun h -> 2 * var p h)) in
  let exclusions =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then Some [ (2 * var p1 h) + 1; (2 * var p2 h) + 1 ] else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  (pigeons * holes, each_pigeon @ exclusions)

let random_3sat_cnf ~seed nvars nclauses =
  let rng = Random.State.make [| seed |] in
  ( nvars,
    List.init nclauses (fun _ ->
        List.init 3 (fun _ -> (2 * Random.State.int rng nvars) + Random.State.int rng 2)) )

(* DIMACS, as written by the bit-blaster's dump: solver variable [v] is [v+1] *)
let dimacs_cnf path =
  let ic = open_in path in
  let nvars = ref 0 and clauses = ref [] in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' (String.trim line) with
       | "c" :: _ | [ "" ] -> ()
       | [ "p"; "cnf"; v; _ ] -> nvars := int_of_string v
       | toks ->
         let lits = List.map int_of_string (List.filter (( <> ) "") toks) in
         let lits = List.filter (( <> ) 0) lits in
         clauses :=
           List.map (fun d -> if d > 0 then 2 * (d - 1) else (2 * (-d - 1)) + 1) lits
           :: !clauses
     done
   with End_of_file -> close_in ic);
  (!nvars, List.rev !clauses)

(* [conflicts; propagations; nvars; nclauses; decisions; true vars; a
   weighted sum of the true vars] *)
let search_of (nvars, clauses) =
  let s = Sat.create () in
  for _ = 1 to nvars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) clauses;
  let r = Sat.solve s in
  let ones = ref 0 and weight = ref 0 in
  if r = Sat.Sat then
    for v = 0 to nvars - 1 do
      if Sat.model_value s v then begin
        incr ones;
        weight := (!weight + (v * 7919)) mod 1_000_003
      end
    done;
  let conflicts, propagations, nvars, nclauses = Sat.stats s in
  (r, [ conflicts; propagations; nvars; nclauses; Sat.decisions s; !ones; !weight ])

let test_search_pins () =
  List.iter
    (fun (name, cnf, want_r, want) ->
      let r, got = search_of cnf in
      check_bool (name ^ ": result") true (r = want_r);
      Alcotest.(check (list int)) (name ^ ": search and model") want got)
    [
      ("pigeonhole 6->5", pigeonhole_cnf 6 5, Sat.Unsat, [ 166; 1926; 30; 243; 206; 0; 0 ]);
      ( "random 3-SAT",
        random_3sat_cnf ~seed:2012 150 630,
        Sat.Sat,
        [ 560; 18936; 150; 1177; 728; 63; 548286 ] );
      ( "Packet Out path condition",
        dimacs_cnf
          (Filename.concat (Filename.dirname Sys.executable_name) "cnf/packet_out_path.cnf"),
        Sat.Sat,
        [ 4; 644; 547; 1354; 162; 150; 79354 ] );
    ]

(* The clause store allocates nothing per clause: literals go to an int
   arena and watches are relinked nodes, so 20,000 stored binary clauses
   and their search cost less than one minor-heap word each (the record,
   array and two watch cells of a boxed store cost about 13).  Whatever
   allocation remains is per variable or per solve.  Measured twice: on a
   fresh instance, and on the same instance after [Sat.reset], which must
   repeat the fresh search exactly. *)
let test_clause_store_allocation () =
  let nvars = 2001 and nclauses = 20_000 in
  (* a hidden assignment satisfies every clause through its first literal *)
  let lit v = if v mod 3 = 0 then 2 * v else (2 * v) + 1 in
  let build_and_solve s =
    let w0 = Gc.minor_words () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    for i = 0 to nclauses - 1 do
      let a = i * 7919 mod nvars in
      let b = (a + 1 + (i mod 997)) mod nvars in
      let lb = if i mod 2 = 0 then lit b else Sat.lit_neg (lit b) in
      Sat.add_clause2 s (lit a) lb
    done;
    let r = Sat.solve s in
    let words = Gc.minor_words () -. w0 in
    (r, Sat.stats s, Sat.decisions s, words)
  in
  let s = Sat.create () in
  let ((r, stats, decisions, _) as fresh) = build_and_solve s in
  Sat.reset s;
  let ((r', stats', decisions', _) as recycled) = build_and_solve s in
  check_bool "satisfiable" true (r = Sat.Sat);
  check_bool "the reset instance repeats the fresh search" true
    ((r, stats, decisions) = (r', stats', decisions'));
  List.iter
    (fun (what, (_, _, _, words)) ->
      if words >= float_of_int nclauses then
        Alcotest.failf "%s instance: %.0f minor words for %d clauses" what words nclauses)
    [ ("fresh", fresh); ("reset", recycled) ]

(* The domain's scratch solver is reset, not recreated, for every query:
   whatever earlier queries left in it (a budget Unknown, a query hook that
   raised after blasting, a certify-mode proof log) must not change an
   answer.  Each answer is compared, result and model bindings, with a
   solve on a fresh blaster. *)
let fresh_answer ?(proof = false) ?max_conflicts conds =
  let conds = List.filter (fun c -> not (Expr.is_true c)) conds in
  if List.exists Expr.is_false conds then `Unsat
  else if conds = [] then `Sat []
  else begin
    let b = Bitblast.create ~proof () in
    List.iter (Bitblast.assert_bool b) conds;
    match Sat.solve ?max_conflicts b.Bitblast.sat with
    | Sat.Sat ->
      `Sat
        (List.map
           (fun (v, x) -> (Expr.var_id v, x))
           (Model.bindings (Bitblast.extract_model b)))
    | Sat.Unsat -> `Unsat
    | Sat.Unknown _ -> `Unknown
  end

let scratch_answer ?max_conflicts conds =
  let budget = Solver.budget ?max_conflicts () in
  match Solver.check ~use_cache:false ~use_interval:false ~budget conds with
  | Solver.Sat m -> `Sat (List.map (fun (v, x) -> (Expr.var_id v, x)) (Model.bindings m))
  | Solver.Unsat -> `Unsat
  | Solver.Unknown (Solver.Proof_failed msg) -> Alcotest.failf "proof rejected: %s" msg
  | Solver.Unknown _ -> `Unknown

let prop_recycled_scratch_matches_fresh =
  QCheck2.Test.make ~name:"recycled scratch solver answers as a fresh one" ~count:60
    QCheck2.Gen.(
      let* w = oneofl [ 4; 8; 16 ] in
      list_size (int_range 2 8) (list_size (int_range 1 4) (Gen.bool_gen ~max_depth:2 w)))
    (fun queries ->
      let certify0 = Solver.certify_enabled () in
      Fun.protect
        ~finally:(fun () ->
          Solver.set_query_hook (fun () -> ());
          Solver.set_certify certify0)
        (fun () ->
          List.for_all
            (fun (k, conds) ->
              (match k mod 4 with
               | 1 ->
                 (* a budget stop leaves a half-searched instance behind *)
                 if scratch_answer ~max_conflicts:0 conds <> fresh_answer ~max_conflicts:0 conds
                 then QCheck2.Test.fail_report "budgeted answer differs"
               | 2 ->
                 (* the hook fires after blasting, before the search *)
                 Solver.set_query_hook (fun () -> raise Exit);
                 (try ignore (scratch_answer conds) with Exit -> ());
                 Solver.set_query_hook (fun () -> ())
               | 3 -> Solver.set_certify (not certify0)
               | _ -> ());
              let proof = Solver.certify_enabled () in
              let ok = scratch_answer conds = fresh_answer ~proof conds in
              Solver.set_certify certify0;
              ok)
            (List.mapi (fun k q -> (k, q)) queries)))

(* --- template rows ------------------------------------------------------ *)

(* [Sat.restore] is a row instance's reset.  A small template restored
   into an instance whose last row was larger must search exactly as the
   template restored into a fresh instance, and as the template's CNF
   built directly.  A heap position or watch head the larger row left past
   the template's variables would keep a new row variable out of the VSIDS
   heap or corrupt a watch chain. *)
let test_restore_after_larger_row () =
  let build (nvars, clauses) =
    let s = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    s
  in
  let small_cnf = random_3sat_cnf ~seed:3 40 120 in
  let small = build small_cnf and large = build (random_3sat_cnf ~seed:4 300 900) in
  (* a row: fresh variables past the template's, tied to it *)
  let row s ~seed ~extra =
    let _, _, nv0, _ = Sat.stats s in
    for _ = 1 to extra do
      ignore (Sat.new_var s)
    done;
    let nv = nv0 + extra in
    List.iter (Sat.add_clause s) (snd (random_3sat_cnf ~seed nv (3 * extra)));
    let r = Sat.solve s in
    let search = (r, Sat.stats s, Sat.decisions s, List.init nv (Sat.model_value s)) in
    (* switch a row variable off, as a row does after a model: the unwind
       puts every variable back into the heap *)
    Sat.add_clause s [ (2 * nv0) + 1 ];
    search
  in
  let recycled = Sat.create () in
  Sat.restore recycled ~from:large;
  check_bool "the larger row is satisfiable" true
    (let r, _, _, _ = row recycled ~seed:5 ~extra:200 in
     r = Sat.Sat);
  Sat.restore recycled ~from:small;
  let got = row recycled ~seed:6 ~extra:30 in
  let fresh = Sat.create () in
  Sat.restore fresh ~from:small;
  let r, _, _, _ = got in
  check_bool "the small row is satisfiable" true (r = Sat.Sat);
  check_bool "recycled = freshly restored" true (got = row fresh ~seed:6 ~extra:30);
  check_bool "restored = built directly" true (got = row (build small_cnf) ~seed:6 ~extra:30)

(* A row's answers depend on the template and the row alone.  Each case
   builds a template over generated B conditions and solves generated A
   rows on this domain's recycled row instance, disturbing them in turn:
   a budget Unknown and a query hook that raises.
   The last row, under a small conflict budget, must then answer exactly
   as on a freshly restored instance (a newly spawned domain's, handed
   this domain's solver configuration, certify mode included): the same
   verdicts and witnesses, the same solve count and the same learnt
   clauses carried from solve to solve. *)
let prop_recycled_row_matches_fresh =
  QCheck2.Test.make ~name:"recycled row answers as a freshly restored one" ~count:40
    QCheck2.Gen.(
      let* w = oneofl [ 4; 8 ] in
      pair
        (list_size (int_range 1 5) (Gen.bool_gen ~max_depth:2 w))
        (list_size (int_range 1 5) (Gen.bool_gen ~max_depth:2 w)))
    (fun (bs, rows) ->
      let t = Session.template bs in
      let solve_row ?budget a =
        let st = Solver.stats () in
        let solves0 = st.Solver.assumption_solves and learnt0 = st.Solver.learnt_retained in
        let cands =
          List.filter_map
            (fun b ->
              match Solver.front ~use_cache:false ~use_interval:false [ a; b ] with
              | Solver.Pending p -> Some (b, p)
              | Solver.Decided _ -> None)
            bs
        in
        let answers = Session.all_sat ?budget t a cands in
        ( List.map
            (function
              | Solver.Sat m -> `Sat (List.map (fun (v, x) -> (Expr.var_id v, x)) (Model.bindings m))
              | Solver.Unsat -> `Unsat
              | Solver.Unknown _ -> `Unknown)
            answers,
          st.Solver.assumption_solves - solves0,
          st.Solver.learnt_retained - learnt0 )
      in
      let budget = Solver.budget ~max_conflicts:2 () in
      let last = List.nth rows (List.length rows - 1) in
      Fun.protect
        ~finally:(fun () -> Solver.set_query_hook (fun () -> ()))
        (fun () ->
          List.iteri
            (fun k a ->
              match k mod 2 with
              | 0 -> ignore (solve_row ~budget:(Solver.budget ~max_conflicts:0 ()) a)
              | _ ->
                Solver.set_query_hook (fun () -> raise Exit);
                (try ignore (solve_row a) with Exit -> ());
                Solver.set_query_hook (fun () -> ()))
            rows);
      let recycled = solve_row ~budget last in
      let cfg = Solver.snapshot_config () in
      recycled
      = Domain.join
          (Domain.spawn (fun () ->
               Solver.apply_config cfg;
               solve_row ~budget last)))

(* Restoring a row and solving it allocate nothing in the major heap once
   the recycled instance has the template's capacity: the restore is
   blits, and the row's own tables keep their buckets.  What the minor
   heap sees per row is the row's own blast, a small fraction of the
   template it restores (a copying restore would allocate the whole
   template's arrays, about [tpl_words] words). *)
let test_row_restore_allocation () =
  let v k = Expr.var ~width:16 (Printf.sprintf "rowalloc.%d" k) in
  let tpl = Bitblast.create () in
  for k = 0 to 59 do
    let s = Bitblast.fresh tpl in
    let b = Expr.ult (Expr.add (v (k mod 7)) (v ((k + 3) mod 7))) (c 16 (1000 * (k + 1))) in
    Sat.add_clause2 tpl.Bitblast.sat (Sat.lit_neg s) (Bitblast.blast_bool tpl b)
  done;
  let _, _, tpl_vars, tpl_clauses = Sat.stats tpl.Bitblast.sat in
  let tpl_words = (3 * tpl_clauses) + (8 * tpl_vars) in
  let row = Bitblast.create () in
  let a = Expr.eq (Expr.logxor (v 0) (v 1)) (c 16 0x55) in
  let run () =
    Bitblast.restore row ~template:tpl;
    Bitblast.assert_bool row a;
    check_bool "row satisfiable" true (Sat.solve row.Bitblast.sat = Sat.Sat)
  in
  run ();
  run ();
  let rows = 50 in
  let minor0, promoted0, major0 = Gc.counters () in
  for _ = 1 to rows do
    run ()
  done;
  let minor1, promoted1, major1 = Gc.counters () in
  let direct_major = major1 -. major0 -. (promoted1 -. promoted0) in
  let per_row = (minor1 -. minor0) /. float_of_int rows in
  if direct_major > 0.0 then
    Alcotest.failf "%.0f words allocated directly in the major heap over %d rows" direct_major rows;
  if per_row >= float_of_int tpl_words /. 10.0 then
    Alcotest.failf "%.0f minor words per row against a %d-word template" per_row tpl_words

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
    Alcotest.test_case "search pins" `Quick test_search_pins;
    Alcotest.test_case "clause store allocation" `Quick test_clause_store_allocation;
    QCheck_alcotest.to_alcotest prop_recycled_scratch_matches_fresh;
    Alcotest.test_case "restore after a larger row" `Quick test_restore_after_larger_row;
    QCheck_alcotest.to_alcotest prop_recycled_row_matches_fresh;
    Alcotest.test_case "row restore allocation" `Quick test_row_restore_allocation;
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
