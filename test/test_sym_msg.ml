(* Symbolic message layer tests: builders respect the input-structuring
   rules, byte layout agrees with the concrete wire codec, and witness
   concretization produces parseable OpenFlow. *)

open Smt
module Sym_msg = Openflow.Sym_msg
module C = Openflow.Constants

let c16 v = Expr.const ~width:16 (Int64.of_int v)
let c32 v = Expr.const ~width:32 (Int64.of_int v)

let concretize m msg = Sym_msg.concretize_wire m msg

let sym_flow_mod_of (fm : Openflow.Types.flow_mod) =
  {
    Sym_msg.sfm_match = Sym_msg.of_match fm.Openflow.Types.fm_match;
    sfm_cookie = Expr.const ~width:64 fm.cookie;
    sfm_command = c16 fm.command;
    sfm_idle_timeout = c16 fm.idle_timeout;
    sfm_hard_timeout = c16 fm.hard_timeout;
    sfm_priority = c16 fm.priority;
    sfm_buffer_id = Expr.const ~width:32 (Int64.logand (Int64.of_int32 fm.fm_buffer_id) 0xffffffffL);
    sfm_out_port = c16 fm.out_port;
    sfm_flags = c16 fm.flags;
    sfm_actions = List.map Sym_msg.of_action fm.fm_actions;
  }

(* central agreement property: laying out a concrete flow mod through the
   symbolic byte assembler gives exactly the wire codec's bytes *)
let prop_flow_mod_layout_agrees =
  QCheck2.Test.make ~name:"symbolic byte layout = wire codec (flow mod)" ~count:300
    Gen.flow_mod_gen
    (fun fm ->
      (* vendor/unknown actions have free-form bodies; the generator avoids
         them, and enqueue/dl actions exercise the 16-byte layout *)
      let via_wire =
        Openflow.Wire.serialize { Openflow.Types.xid = 0x5057l; payload = Openflow.Types.Flow_mod fm }
      in
      let sym = Sym_msg.flow_mod ~xid:(c32 0x5057) (sym_flow_mod_of fm) in
      let via_sym = concretize (Model.empty ()) sym in
      via_sym = via_wire)

let test_packet_out_layout () =
  let po =
    {
      Sym_msg.spo_buffer_id = c32 0xffffffff;
      spo_in_port = c16 C.Port.none;
      spo_actions = [ Sym_msg.of_action (Openflow.Types.Output { port = 2; max_len = 64 }) ];
      spo_data = None;
    }
  in
  let wire = concretize (Model.empty ()) (Sym_msg.packet_out po) in
  let parsed = Openflow.Wire.parse wire in
  match parsed.Openflow.Types.payload with
  | Openflow.Types.Packet_out p ->
    Alcotest.(check int) "in_port" C.Port.none p.Openflow.Types.po_in_port;
    Alcotest.(check int) "one action" 1 (List.length p.po_actions)
  | _ -> Alcotest.fail "expected packet out"

let test_symbolic_action_is_structured () =
  let a = Sym_msg.sym_action ~prefix:"tsm.a" () in
  (* length concrete (structuring rule), type symbolic *)
  Alcotest.(check bool) "length is concrete" true (Expr.is_const a.Sym_msg.a_len);
  Alcotest.(check bool) "type is symbolic" false (Expr.is_const a.Sym_msg.a_type);
  Alcotest.(check int) "8-byte action carries 4 body bytes" 4 (Array.length a.Sym_msg.a_body)

let test_body_views_are_big_endian () =
  let a = Sym_msg.sym_action ~prefix:"tsm.b" () in
  let m =
    Model.of_bindings
      [
        (Expr.make_var "tsm.b.b0" 8, 0xabL);
        (Expr.make_var "tsm.b.b1" 8, 0xcdL);
        (Expr.make_var "tsm.b.b2" 8, 0x01L);
        (Expr.make_var "tsm.b.b3" 8, 0x02L);
      ]
  in
  Alcotest.(check int64) "u16 view" 0xabcdL (Model.eval_bv m (Sym_msg.body_u16 a 0));
  Alcotest.(check int64) "u32 view" 0xabcd0102L (Model.eval_bv m (Sym_msg.body_u32 a 0))

let test_sym_output_action_aliases_port () =
  let a = Sym_msg.sym_output_action ~prefix:"tsm.o" () in
  let m = Model.of_bindings [ (Expr.make_var "tsm.o.port" 16, 0xfffdL) ] in
  Alcotest.(check int64) "port field recovered from body bytes" 0xfffdL
    (Model.eval_bv m (Sym_msg.body_u16 a 0))

let test_message_phys_lengths () =
  Alcotest.(check int) "hello" 8 (Sym_msg.hello ()).Sym_msg.sm_phys_len;
  Alcotest.(check int) "barrier" 8 (Sym_msg.barrier_request ()).Sym_msg.sm_phys_len;
  Alcotest.(check int) "set_config" 12
    (Sym_msg.set_config
       { Sym_msg.scfg_flags = c16 0; smiss_send_len = c16 0 })
      .Sym_msg.sm_phys_len;
  Alcotest.(check int) "queue_get_config" 12
    (Sym_msg.queue_get_config_request (c16 1)).Sym_msg.sm_phys_len;
  let fm =
    Sym_msg.flow_mod (sym_flow_mod_of
      { Openflow.Types.fm_match = Openflow.Types.match_all; cookie = 0L;
        command = 0; idle_timeout = 0; hard_timeout = 0; priority = 0;
        fm_buffer_id = 0xffffffffl; out_port = 0; flags = 0;
        fm_actions = [ Openflow.Types.Output { port = 1; max_len = 0 } ] })
  in
  Alcotest.(check int) "flow mod with one action" 80 fm.Sym_msg.sm_phys_len

let test_short_symbolic_shape () =
  let m = Sym_msg.short_symbolic ~prefix:"tss" () in
  Alcotest.(check int) "10 bytes" 10 m.Sym_msg.sm_phys_len;
  Alcotest.(check bool) "type symbolic" false (Expr.is_const m.Sym_msg.sm_type);
  Alcotest.(check bool) "length symbolic" false (Expr.is_const m.Sym_msg.sm_length);
  match m.Sym_msg.sm_body with
  | Sym_msg.SRaw bytes -> Alcotest.(check int) "2 raw body bytes" 2 (Array.length bytes)
  | _ -> Alcotest.fail "expected raw body"

let test_stats_request_builder () =
  let m = Sym_msg.sym_stats_request ~prefix:"tsr" () in
  Alcotest.(check int) "physical size" (8 + 4 + 44) m.Sym_msg.sm_phys_len;
  Alcotest.(check bool) "claimed length symbolic" false (Expr.is_const m.Sym_msg.sm_length);
  match m.Sym_msg.sm_body with
  | Sym_msg.SStats_request s ->
    Alcotest.(check bool) "stats type symbolic" false (Expr.is_const s.Sym_msg.ssr_type)
  | _ -> Alcotest.fail "expected stats request"

let test_concretized_message_parses () =
  (* pin the short symbolic message to an echo request through a model and
     check that the resulting bytes are valid OpenFlow *)
  let msg = Sym_msg.short_symbolic ~prefix:"tcw" () in
  let m =
    Model.of_bindings
      [
        (Expr.make_var "tcw.type" 8, Int64.of_int C.Msg_type.echo_request);
        (Expr.make_var "tcw.length" 16, 10L);
        (Expr.make_var "tcw.xid" 32, 7L);
        (Expr.make_var "tcw.b0" 8, 0x68L);
        (Expr.make_var "tcw.b1" 8, 0x69L);
      ]
  in
  let wire = concretize m msg in
  Alcotest.(check int) "10 bytes" 10 (String.length wire);
  match (Openflow.Wire.parse wire).Openflow.Types.payload with
  | Openflow.Types.Echo_request "hi" -> ()
  | _ -> Alcotest.fail "expected echo request with payload \"hi\""

(* [of_wire] inverts concretization: decoding a message's reproducer bytes
   and concretizing the (all-constant) result gives the same bytes back,
   for the symbolic Table-1 messages under arbitrary models — claimed
   lengths, action headers and stats types included, so malformed and
   raw-fallback layouts are exercised too. *)
let wire_messages =
  List.map
    (fun (spec : Harness.Test_spec.t) ->
      match spec.Harness.Test_spec.inputs with
      | Harness.Test_spec.Msg m :: _ -> (spec.Harness.Test_spec.id, m)
      | _ -> Alcotest.failf "%s: first input is not a message" spec.Harness.Test_spec.id)
    Harness.Test_spec.[ packet_out (); flow_mod (); stats_request (); set_config (); short_symb () ]

let message_vars m =
  List.sort_uniq compare
    (Array.fold_left (fun acc b -> Expr.vars_of_bv b @ acc) [] (Sym_msg.to_sym_bytes m))

let reproducer_gen =
  let open QCheck2.Gen in
  let* id, m = oneofl wire_messages in
  let vars = message_vars m in
  let+ values = flatten_l (List.map (fun v -> Gen.value_for_width (Expr.var_width v)) vars) in
  (id, m, Model.of_bindings (List.combine vars values))

let prop_of_wire_roundtrip =
  QCheck2.Test.make ~name:"of_wire inverts concretize_wire" ~count:500
    ~print:(fun (id, m, model) -> Printf.sprintf "%s: %S" id (concretize model m))
    reproducer_gen
    (fun (_, m, model) ->
      let bytes = concretize model m in
      concretize (Model.empty ()) (Sym_msg.of_wire bytes) = bytes)

let test_eth_match_forces_non_eth_wildcards () =
  let m = Sym_msg.sym_match_eth ~prefix:"tem" () in
  (* whatever the symbolic wildcard variable is, non-Ethernet fields are
     forced to fully wildcarded: check under two different assignments *)
  List.iter
    (fun v ->
      let model = Model.of_bindings [ (Expr.make_var "tem.wildcards" 32, v) ] in
      let wc = Model.eval_bv model m.Sym_msg.s_wildcards in
      let i = Int64.to_int wc in
      Alcotest.(check bool) "nw_src fully wildcarded" true
        (i land C.Wildcards.nw_src_mask = C.Wildcards.nw_src_all);
      Alcotest.(check bool) "tp wildcarded" true
        (i land C.Wildcards.tp_src <> 0 && i land C.Wildcards.tp_dst <> 0))
    [ 0L; 0x3fffffL ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_flow_mod_layout_agrees;
    QCheck_alcotest.to_alcotest prop_of_wire_roundtrip;
    Alcotest.test_case "packet out layout" `Quick test_packet_out_layout;
    Alcotest.test_case "symbolic action structure" `Quick test_symbolic_action_is_structured;
    Alcotest.test_case "body views big-endian" `Quick test_body_views_are_big_endian;
    Alcotest.test_case "output action port alias" `Quick test_sym_output_action_aliases_port;
    Alcotest.test_case "physical lengths" `Quick test_message_phys_lengths;
    Alcotest.test_case "short symbolic shape" `Quick test_short_symbolic_shape;
    Alcotest.test_case "stats request builder" `Quick test_stats_request_builder;
    Alcotest.test_case "concretized message parses" `Quick test_concretized_message_parses;
    Alcotest.test_case "eth match wildcards" `Quick test_eth_match_forces_non_eth_wildcards;
  ]
