(* Symbolic OpenFlow messages, built the way SOFT structures inputs
   (paper §3.2.1): structure concrete — message type (usually), claimed
   length (usually), number and wire length of actions — while field
   *contents* are symbolic bitvector variables.

   Action bodies are raw symbolic bytes reinterpreted per action type by
   the agents, because the action type itself is symbolic in the Packet Out
   and Flow Mod tests; this reproduces the real parsing aliasing (the same
   wire bytes are a port for OUTPUT and a VLAN id for SET_VLAN_VID).

   [to_sym_bytes] lays a message out as symbolic wire bytes; evaluating
   those bytes under a solver model yields the concrete reproducer test
   case for an inconsistency. *)

open Smt
module C = Constants

type sbv = Expr.bv

let c8 v = Expr.const ~width:8 (Int64.of_int v)
let c16 v = Expr.const ~width:16 (Int64.of_int v)
let c32 v = Expr.const ~width:32 (Int64.of_int v)
let c32l v = Expr.const ~width:32 (Int64.logand (Int64.of_int32 v) 0xffffffffL)
let c48 v = Expr.const ~width:48 v
let v8 n = Expr.var ~width:8 n
let v16 n = Expr.var ~width:16 n
let v32 n = Expr.var ~width:32 n
let v48 n = Expr.var ~width:48 n

(* --- actions ----------------------------------------------------------- *)

type saction = {
  a_type : sbv; (* 16 *)
  a_len : sbv; (* 16; concrete under input structuring *)
  a_body : sbv array; (* 8-bit each; length = wire length - 4 *)
}

(* big-endian field views over the body bytes *)
let body_u8 (a : saction) off = a.a_body.(off)

let body_u16 (a : saction) off = Expr.concat a.a_body.(off) a.a_body.(off + 1)

let body_u32 (a : saction) off =
  Expr.concat (body_u16 a off) (body_u16 a (off + 2))

let body_mac (a : saction) off =
  let rec go i acc = if i >= 6 then acc else go (i + 1) (Expr.concat acc a.a_body.(off + i)) in
  go 1 a.a_body.(off)

let action_phys_len (a : saction) = 4 + Array.length a.a_body

(* Fully symbolic action: symbolic type, concrete length [len] (8 or 16),
   symbolic body bytes. *)
let sym_action ~prefix ?(len = 8) () =
  {
    a_type = v16 (prefix ^ ".type");
    a_len = c16 len;
    a_body = Array.init (len - 4) (fun i -> v8 (Printf.sprintf "%s.b%d" prefix i));
  }

(* Symbolic OUTPUT action: concrete type, symbolic port and max_len. *)
let sym_output_action ~prefix () =
  {
    a_type = c16 C.Action_type.output;
    a_len = c16 8;
    a_body =
      (let port = v16 (prefix ^ ".port") and max_len = v16 (prefix ^ ".max_len") in
       let b e i = Expr.extract ~hi:(8 * i + 7) ~lo:(8 * i) e in
       [| b port 1; b port 0; b max_len 1; b max_len 0 |]);
  }

let bytes_of_value e nbytes =
  Array.init nbytes (fun i ->
      let msb_index = nbytes - 1 - i in
      Expr.extract ~hi:(8 * msb_index + 7) ~lo:(8 * msb_index) e)

(* Concrete action -> symbolic representation (used for concrete messages
   in sequences such as CS FlowMods). *)
let of_action (a : Types.action) =
  let mk typ len fields =
    let body = Array.concat fields in
    assert (Array.length body = len - 4);
    { a_type = c16 typ; a_len = c16 len; a_body = body }
  in
  match a with
  | Types.Output { port; max_len } ->
    mk C.Action_type.output 8 [ bytes_of_value (c16 port) 2; bytes_of_value (c16 max_len) 2 ]
  | Types.Set_vlan_vid vid ->
    mk C.Action_type.set_vlan_vid 8 [ bytes_of_value (c16 vid) 2; bytes_of_value (c16 0) 2 ]
  | Types.Set_vlan_pcp pcp ->
    mk C.Action_type.set_vlan_pcp 8 [ bytes_of_value (c8 pcp) 1; bytes_of_value (c32 0) 3 ]
  | Types.Strip_vlan -> mk C.Action_type.strip_vlan 8 [ bytes_of_value (c32 0) 4 ]
  | Types.Set_dl_src m ->
    mk C.Action_type.set_dl_src 16 [ bytes_of_value (c48 m) 6; bytes_of_value (c48 0L) 6 ]
  | Types.Set_dl_dst m ->
    mk C.Action_type.set_dl_dst 16 [ bytes_of_value (c48 m) 6; bytes_of_value (c48 0L) 6 ]
  | Types.Set_nw_src a -> mk C.Action_type.set_nw_src 8 [ bytes_of_value (c32l a) 4 ]
  | Types.Set_nw_dst a -> mk C.Action_type.set_nw_dst 8 [ bytes_of_value (c32l a) 4 ]
  | Types.Set_nw_tos t ->
    mk C.Action_type.set_nw_tos 8 [ bytes_of_value (c8 t) 1; bytes_of_value (c8 0) 1; bytes_of_value (c16 0) 2 ]
  | Types.Set_tp_src p ->
    mk C.Action_type.set_tp_src 8 [ bytes_of_value (c16 p) 2; bytes_of_value (c16 0) 2 ]
  | Types.Set_tp_dst p ->
    mk C.Action_type.set_tp_dst 8 [ bytes_of_value (c16 p) 2; bytes_of_value (c16 0) 2 ]
  | Types.Enqueue { port; queue_id } ->
    mk C.Action_type.enqueue 16
      [ bytes_of_value (c16 port) 2; bytes_of_value (c48 0L) 6; bytes_of_value (c32l queue_id) 4 ]
  | Types.Vendor_action { vendor; body } ->
    let blen = String.length body in
    mk C.Action_type.vendor (8 + blen)
      [ bytes_of_value (c32l vendor) 4;
        Array.init blen (fun i -> c8 (Char.code body.[i])) ]
  | Types.Unknown_action { typ; len; body } ->
    mk typ len [ Array.init (String.length body) (fun i -> c8 (Char.code body.[i])) ]

(* --- match -------------------------------------------------------------- *)

type smatch = {
  s_wildcards : sbv; (* 32 *)
  s_in_port : sbv; (* 16 *)
  s_dl_src : sbv; (* 48 *)
  s_dl_dst : sbv; (* 48 *)
  s_dl_vlan : sbv; (* 16 *)
  s_dl_vlan_pcp : sbv; (* 8 *)
  s_dl_type : sbv; (* 16 *)
  s_nw_tos : sbv; (* 8 *)
  s_nw_proto : sbv; (* 8 *)
  s_nw_src : sbv; (* 32 *)
  s_nw_dst : sbv; (* 32 *)
  s_tp_src : sbv; (* 16 *)
  s_tp_dst : sbv; (* 16 *)
}

let sym_match ~prefix () =
  let f n = prefix ^ "." ^ n in
  {
    s_wildcards = v32 (f "wildcards");
    s_in_port = v16 (f "in_port");
    s_dl_src = v48 (f "dl_src");
    s_dl_dst = v48 (f "dl_dst");
    s_dl_vlan = v16 (f "dl_vlan");
    s_dl_vlan_pcp = v8 (f "dl_vlan_pcp");
    s_dl_type = v16 (f "dl_type");
    s_nw_tos = v8 (f "nw_tos");
    s_nw_proto = v8 (f "nw_proto");
    s_nw_src = v32 (f "nw_src");
    s_nw_dst = v32 (f "nw_dst");
    s_tp_src = v16 (f "tp_src");
    s_tp_dst = v16 (f "tp_dst");
  }

(* Ethernet-focused symbolic match: only L2-related fields (and their
   wildcard bits) are symbolic; network/transport fields are concretized
   and forced to fully-wildcarded (Eth FlowMod test, Table 1). *)
let sym_match_eth ~prefix () =
  let f n = prefix ^ "." ^ n in
  let eth_bits =
    C.Wildcards.(in_port lor dl_vlan lor dl_src lor dl_dst lor dl_type lor dl_vlan_pcp)
  in
  let non_eth_all =
    C.Wildcards.(
      nw_proto lor tp_src lor tp_dst lor nw_tos lor nw_src_all lor nw_dst_all)
  in
  {
    s_wildcards =
      Expr.logor
        (Expr.logand (v32 (f "wildcards")) (c32 eth_bits))
        (c32 non_eth_all);
    s_in_port = v16 (f "in_port");
    s_dl_src = v48 (f "dl_src");
    s_dl_dst = v48 (f "dl_dst");
    s_dl_vlan = v16 (f "dl_vlan");
    s_dl_vlan_pcp = v8 (f "dl_vlan_pcp");
    s_dl_type = v16 (f "dl_type");
    s_nw_tos = c8 0;
    s_nw_proto = c8 0;
    s_nw_src = c32 0;
    s_nw_dst = c32 0;
    s_tp_src = c16 0;
    s_tp_dst = c16 0;
  }

(* Fully-wildcarded concrete match. *)
let match_any = ref None

let of_match (m : Types.of_match) =
  {
    s_wildcards = c32l m.wildcards;
    s_in_port = c16 m.in_port;
    s_dl_src = c48 m.dl_src;
    s_dl_dst = c48 m.dl_dst;
    s_dl_vlan = c16 m.dl_vlan;
    s_dl_vlan_pcp = c8 m.dl_vlan_pcp;
    s_dl_type = c16 m.dl_type;
    s_nw_tos = c8 m.nw_tos;
    s_nw_proto = c8 m.nw_proto;
    s_nw_src = c32l m.nw_src;
    s_nw_dst = c32l m.nw_dst;
    s_tp_src = c16 m.tp_src;
    s_tp_dst = c16 m.tp_dst;
  }

let wildcard_match () =
  match !match_any with
  | Some m -> m
  | None ->
    let m = of_match Types.match_all in
    match_any := Some m;
    m

(* --- message bodies ------------------------------------------------------ *)

type spacket_out = {
  spo_buffer_id : sbv; (* 32 *)
  spo_in_port : sbv; (* 16 *)
  spo_actions : saction list;
  spo_data : Packet.Sym_packet.t option; (* packet to send if buffer_id = -1 *)
}

type sflow_mod = {
  sfm_match : smatch;
  sfm_cookie : sbv; (* 64 *)
  sfm_command : sbv; (* 16 *)
  sfm_idle_timeout : sbv; (* 16 *)
  sfm_hard_timeout : sbv; (* 16 *)
  sfm_priority : sbv; (* 16 *)
  sfm_buffer_id : sbv; (* 32 *)
  sfm_out_port : sbv; (* 16 *)
  sfm_flags : sbv; (* 16 *)
  sfm_actions : saction list;
}

type sswitch_config = { scfg_flags : sbv; smiss_send_len : sbv } (* 16 each *)

type sstats_request = {
  ssr_type : sbv; (* 16 *)
  ssr_flags : sbv; (* 16 *)
  (* flow / aggregate view *)
  ssr_match : smatch;
  ssr_table_id : sbv; (* 8 *)
  ssr_out_port : sbv; (* 16 *)
  (* port view *)
  ssr_port_no : sbv; (* 16 *)
  (* queue view *)
  ssr_queue_port : sbv; (* 16 *)
  ssr_queue_id : sbv; (* 32 *)
}

type sbody =
  | SHello
  | SEcho_request of sbv array
  | SFeatures_request
  | SGet_config_request
  | SSet_config of sswitch_config
  | SPacket_out of spacket_out
  | SFlow_mod of sflow_mod
  | SStats_request of sstats_request
  | SBarrier_request
  | SQueue_get_config_request of { sqgc_port : sbv (* 16 *) }
  | SVendor of { sv_vendor : sbv (* 32 *) }
  | SRaw of sbv array (* uninterpreted body bytes *)

type t = {
  sm_type : sbv; (* 8; concrete under input structuring, symbolic in Short Symb *)
  sm_length : sbv; (* 16; the *claimed* length *)
  sm_phys_len : int; (* bytes actually delivered on the wire *)
  sm_xid : sbv; (* 32 *)
  sm_body : sbody;
}

let actions_phys_len actions =
  List.fold_left (fun acc a -> acc + action_phys_len a) 0 actions

let body_phys_len = function
  | SHello | SFeatures_request | SGet_config_request | SBarrier_request -> 0
  | SEcho_request bytes -> Array.length bytes
  | SSet_config _ -> 4
  | SPacket_out { spo_actions; spo_data; _ } ->
    8 + actions_phys_len spo_actions + (match spo_data with Some _ -> 64 | None -> 0)
  | SFlow_mod { sfm_actions; _ } -> 64 + actions_phys_len sfm_actions
  | SStats_request _ -> 4 + 44 (* header fields + largest body (flow stats request) *)
  | SQueue_get_config_request _ -> 4
  | SVendor _ -> 4
  | SRaw bytes -> Array.length bytes

(* Build a message with concrete type and correct concrete length — the
   standard input structuring. *)
let make ?xid typ body =
  let phys = C.Sizes.header + body_phys_len body in
  {
    sm_type = c8 typ;
    sm_length = c16 phys;
    sm_phys_len = phys;
    sm_xid = (match xid with Some x -> x | None -> c32 0x5057);
    sm_body = body;
  }

let packet_out ?xid po = make ?xid C.Msg_type.packet_out (SPacket_out po)
let flow_mod ?xid fm = make ?xid C.Msg_type.flow_mod (SFlow_mod fm)
let set_config ?xid sc = make ?xid C.Msg_type.set_config (SSet_config sc)
let barrier_request ?xid () = make ?xid C.Msg_type.barrier_request SBarrier_request
let hello ?xid () = make ?xid C.Msg_type.hello SHello
let echo_request ?xid payload = make ?xid C.Msg_type.echo_request (SEcho_request payload)
let features_request ?xid () = make ?xid C.Msg_type.features_request SFeatures_request
let get_config_request ?xid () = make ?xid C.Msg_type.get_config_request SGet_config_request

let queue_get_config_request ?xid port =
  make ?xid C.Msg_type.queue_get_config_request (SQueue_get_config_request { sqgc_port = port })

(* Symbolic stats request covering all subtypes: the stats type and the
   claimed message length are symbolic, the physical body is the largest
   request body. *)
let sym_stats_request ~prefix () =
  let f n = prefix ^ "." ^ n in
  let body =
    SStats_request
      {
        ssr_type = v16 (f "stats_type");
        ssr_flags = v16 (f "flags");
        ssr_match = sym_match ~prefix:(f "match") ();
        ssr_table_id = v8 (f "table_id");
        ssr_out_port = v16 (f "out_port");
        ssr_port_no = v16 (f "port_no");
        ssr_queue_port = v16 (f "queue_port");
        ssr_queue_id = v32 (f "queue_id");
      }
  in
  let phys = C.Sizes.header + body_phys_len body in
  {
    sm_type = c8 C.Msg_type.stats_request;
    sm_length = v16 (f "length");
    sm_phys_len = phys;
    sm_xid = c32 0x5057;
    sm_body = body;
  }

(* Short Symb (Table 1): a 10-byte message where only the version is
   concrete — type, length, xid and the two body bytes are symbolic. *)
let short_symbolic ~prefix () =
  let f n = prefix ^ "." ^ n in
  {
    sm_type = v8 (f "type");
    sm_length = v16 (f "length");
    sm_phys_len = 10;
    sm_xid = v32 (f "xid");
    sm_body = SRaw [| v8 (f "b0"); v8 (f "b1") |];
  }

(* --- symbolic wire layout ------------------------------------------------ *)

let push_bytes acc e nbytes =
  let bs = bytes_of_value e nbytes in
  Array.fold_left (fun acc b -> b :: acc) acc bs

let push_pad acc n =
  let rec go acc n = if n = 0 then acc else go (c8 0 :: acc) (n - 1) in
  go acc n

let push_match acc (m : smatch) =
  let acc = push_bytes acc m.s_wildcards 4 in
  let acc = push_bytes acc m.s_in_port 2 in
  let acc = push_bytes acc m.s_dl_src 6 in
  let acc = push_bytes acc m.s_dl_dst 6 in
  let acc = push_bytes acc m.s_dl_vlan 2 in
  let acc = push_bytes acc m.s_dl_vlan_pcp 1 in
  let acc = push_pad acc 1 in
  let acc = push_bytes acc m.s_dl_type 2 in
  let acc = push_bytes acc m.s_nw_tos 1 in
  let acc = push_bytes acc m.s_nw_proto 1 in
  let acc = push_pad acc 2 in
  let acc = push_bytes acc m.s_nw_src 4 in
  let acc = push_bytes acc m.s_nw_dst 4 in
  let acc = push_bytes acc m.s_tp_src 2 in
  push_bytes acc m.s_tp_dst 2

let push_action acc (a : saction) =
  let acc = push_bytes acc a.a_type 2 in
  let acc = push_bytes acc a.a_len 2 in
  Array.fold_left (fun acc b -> b :: acc) acc a.a_body

let push_packet acc (p : Packet.Sym_packet.t) =
  (* fixed 64-byte frame layout: eth (14 or 18) + ip (20) + tcp/udp/other,
     zero-padded to 64 *)
  let open Packet.Sym_packet in
  let acc0 = acc in
  let acc = push_bytes acc0 p.sdl_dst 6 in
  let acc = push_bytes acc p.sdl_src 6 in
  let acc =
    match p.svlan with
    | Some { svid; spcp } ->
      let acc = push_bytes acc (c16 Packet.Constants_pkt.eth_type_vlan) 2 in
      let tci =
        Expr.logor
          (Expr.shl (Expr.zext ~width:16 (Expr.logand spcp (c8 7))) (c16 13))
          (Expr.logand svid (c16 0xfff))
      in
      push_bytes acc tci 2
    | None -> acc
  in
  let acc = push_bytes acc p.sdl_type 2 in
  let acc =
    match p.snet with
    | Sipv4 ip ->
      let acc = push_bytes acc (c8 0x45) 1 in
      let acc = push_bytes acc ip.stos 1 in
      let acc = push_bytes acc (c16 40) 2 in
      let acc = push_pad acc 4 (* id, frag *) in
      let acc = push_bytes acc (c8 64) 1 in
      let acc = push_bytes acc ip.sproto 1 in
      let acc = push_pad acc 2 (* checksum stubbed *) in
      let acc = push_bytes acc ip.ssrc 4 in
      let acc = push_bytes acc ip.sdst 4 in
      (match ip.stransport with
       | Stcp { stcp_src; stcp_dst } ->
         let acc = push_bytes acc stcp_src 2 in
         push_bytes acc stcp_dst 2
       | Sudp { sudp_src; sudp_dst } ->
         let acc = push_bytes acc sudp_src 2 in
         push_bytes acc sudp_dst 2
       | Sicmp { sicmp_type; sicmp_code } ->
         let acc = push_bytes acc sicmp_type 1 in
         push_bytes acc sicmp_code 1
       | Sother_transport -> acc)
    | Sother_net -> acc
  in
  (* pad to exactly 64 bytes *)
  let emitted = List.length acc - List.length acc0 in
  push_pad acc (max 0 (64 - emitted))

let push_body acc = function
  | SHello | SFeatures_request | SGet_config_request | SBarrier_request -> acc
  | SEcho_request bytes -> Array.fold_left (fun acc b -> b :: acc) acc bytes
  | SSet_config { scfg_flags; smiss_send_len } ->
    let acc = push_bytes acc scfg_flags 2 in
    push_bytes acc smiss_send_len 2
  | SPacket_out { spo_buffer_id; spo_in_port; spo_actions; spo_data } ->
    let acc = push_bytes acc spo_buffer_id 4 in
    let acc = push_bytes acc spo_in_port 2 in
    let acc = push_bytes acc (c16 (actions_phys_len spo_actions)) 2 in
    let acc = List.fold_left push_action acc spo_actions in
    (match spo_data with Some p -> push_packet acc p | None -> acc)
  | SFlow_mod fm ->
    let acc = push_match acc fm.sfm_match in
    let acc = push_bytes acc fm.sfm_cookie 8 in
    let acc = push_bytes acc fm.sfm_command 2 in
    let acc = push_bytes acc fm.sfm_idle_timeout 2 in
    let acc = push_bytes acc fm.sfm_hard_timeout 2 in
    let acc = push_bytes acc fm.sfm_priority 2 in
    let acc = push_bytes acc fm.sfm_buffer_id 4 in
    let acc = push_bytes acc fm.sfm_out_port 2 in
    let acc = push_bytes acc fm.sfm_flags 2 in
    List.fold_left push_action acc fm.sfm_actions
  | SStats_request s ->
    let acc = push_bytes acc s.ssr_type 2 in
    let acc = push_bytes acc s.ssr_flags 2 in
    (* the physical body carries the flow-request view; the port and queue
       views alias its leading bytes on the real wire, which the concrete
       test-case printer resolves per chosen stats type *)
    let acc = push_match acc s.ssr_match in
    let acc = push_bytes acc s.ssr_table_id 1 in
    let acc = push_pad acc 1 in
    push_bytes acc s.ssr_out_port 2
  | SQueue_get_config_request { sqgc_port } ->
    let acc = push_bytes acc sqgc_port 2 in
    push_pad acc 2
  | SVendor { sv_vendor } -> push_bytes acc sv_vendor 4
  | SRaw bytes -> Array.fold_left (fun acc b -> b :: acc) acc bytes

(* The message as symbolic wire bytes (header + body). *)
let to_sym_bytes (m : t) =
  let acc = [] in
  let acc = push_bytes acc (c8 C.version) 1 in
  let acc = push_bytes acc m.sm_type 1 in
  let acc = push_bytes acc m.sm_length 2 in
  let acc = push_bytes acc m.sm_xid 4 in
  let acc = push_body acc m.sm_body in
  Array.of_list (List.rev acc)

(* Concrete wire bytes of the message under a model. *)
let concretize_wire model (m : t) =
  let bytes = to_sym_bytes m in
  String.init (Array.length bytes) (fun i ->
      Char.chr (Int64.to_int (Model.eval_bv model bytes.(i)) land 0xff))

(* --- lenient wire decoder (reproducer replay) ---------------------------- *)

(* [of_wire] inverts [to_sym_bytes] over *concrete* reproducer bytes: every
   field comes back as a constant expression, laid out exactly as push_body
   wrote it, so reproducer validation can rebuild the structured input a
   switch would parse from the bytes [--cases] prints and drive the agent
   code on it.

   The decoder is deliberately lenient where reproducers are deliberately
   broken: the claimed length may disagree with the physical byte count
   (that is the Short Symb test's whole point), and a body that does not
   fit its type's structured layout falls back to [SRaw] — which is also
   what the agents' raw-fallback path sees in process, so the fallback
   preserves behavioural fidelity rather than papering over it.

   One documented infidelity: a symbolic stats request carries independent
   port-view/queue-view variables that the physical wire cannot — on the
   wire those views alias the flow-view match bytes.  [of_wire] resolves
   the alias the way a real switch would (port_no and queue_port from the
   first post-flags bytes, queue_id from bytes 8..11 of that region), so a
   witness whose model gives the aliased variables contradictory values
   replays differently from its bytes.  Reproducer validation reports such
   drift as a verdict difference rather than hiding it. *)

exception Of_wire_error of string

let of_wire s =
  let len = String.length s in
  if len < C.Sizes.header then
    raise (Of_wire_error (Printf.sprintf "message shorter than a header: %d bytes" len));
  let u8 off = Char.code s.[off] in
  let u16 off = (u8 off lsl 8) lor u8 (off + 1) in
  let u32 off = (u16 off lsl 16) lor u16 (off + 2) in
  let i64 off n =
    let rec go acc i =
      if i >= n then acc
      else go (Int64.logor (Int64.shift_left acc 8) (Int64.of_int (u8 (off + i)))) (i + 1)
    in
    go 0L 0
  in
  let c64 v = Expr.const ~width:64 v in
  let body_off = C.Sizes.header in
  let blen = len - body_off in
  let raw_body () = SRaw (Array.init blen (fun i -> c8 (u8 (body_off + i)))) in
  (* Structured body parsing; [exit_raw] abandons ship to SRaw — the same
     shape the in-process raw-fallback path dispatches on. *)
  let exception Lenient in
  let read_match off =
    {
      s_wildcards = c32 (u32 off);
      s_in_port = c16 (u16 (off + 4));
      s_dl_src = c48 (i64 (off + 6) 6);
      s_dl_dst = c48 (i64 (off + 12) 6);
      s_dl_vlan = c16 (u16 (off + 18));
      s_dl_vlan_pcp = c8 (u8 (off + 20));
      (* 1 pad byte *)
      s_dl_type = c16 (u16 (off + 22));
      s_nw_tos = c8 (u8 (off + 24));
      s_nw_proto = c8 (u8 (off + 25));
      (* 2 pad bytes *)
      s_nw_src = c32 (u32 (off + 28));
      s_nw_dst = c32 (u32 (off + 32));
      s_tp_src = c16 (u16 (off + 36));
      s_tp_dst = c16 (u16 (off + 38));
    }
  in
  let read_actions off stop =
    let rec go off acc =
      if off = stop then List.rev acc
      else if stop - off < 4 then raise Lenient
      else begin
        let alen = u16 (off + 2) in
        if alen < 4 || off + alen > stop then raise Lenient;
        let a =
          {
            a_type = c16 (u16 off);
            a_len = c16 alen;
            a_body = Array.init (alen - 4) (fun i -> c8 (u8 (off + 4 + i)));
          }
        in
        go (off + alen) (a :: acc)
      end
    in
    go off []
  in
  let read_packet off =
    match Packet.Headers.of_bytes (String.sub s off (len - off)) with
    | pkt -> Packet.Sym_packet.of_concrete pkt
    | exception Packet.Headers.Parse_error _ -> raise Lenient
  in
  let typ = u8 1 in
  let body =
    try
      if typ = C.Msg_type.hello && blen = 0 then SHello
      else if typ = C.Msg_type.echo_request then
        SEcho_request (Array.init blen (fun i -> c8 (u8 (body_off + i))))
      else if typ = C.Msg_type.features_request && blen = 0 then SFeatures_request
      else if typ = C.Msg_type.get_config_request && blen = 0 then SGet_config_request
      else if typ = C.Msg_type.set_config && blen = 4 then
        SSet_config { scfg_flags = c16 (u16 body_off); smiss_send_len = c16 (u16 (body_off + 2)) }
      else if typ = C.Msg_type.packet_out && blen >= 8 then begin
        let alen = u16 (body_off + 6) in
        if 8 + alen > blen then raise Lenient;
        let actions = read_actions (body_off + 8) (body_off + 8 + alen) in
        let data_off = body_off + 8 + alen in
        let data = if data_off = len then None else Some (read_packet data_off) in
        SPacket_out
          {
            spo_buffer_id = c32 (u32 body_off);
            spo_in_port = c16 (u16 (body_off + 4));
            spo_actions = actions;
            spo_data = data;
          }
      end
      else if typ = C.Msg_type.flow_mod && blen >= 64 then
        SFlow_mod
          {
            sfm_match = read_match body_off;
            sfm_cookie = c64 (i64 (body_off + 40) 8);
            sfm_command = c16 (u16 (body_off + 48));
            sfm_idle_timeout = c16 (u16 (body_off + 50));
            sfm_hard_timeout = c16 (u16 (body_off + 52));
            sfm_priority = c16 (u16 (body_off + 54));
            sfm_buffer_id = c32 (u32 (body_off + 56));
            sfm_out_port = c16 (u16 (body_off + 60));
            sfm_flags = c16 (u16 (body_off + 62));
            sfm_actions = read_actions (body_off + 64) len;
          }
      else if typ = C.Msg_type.stats_request && blen = 48 then begin
        (* Post-flags region at body_off+4: the flow view's match, which
           the port and queue views alias on the real wire (see above). *)
        let region = body_off + 4 in
        SStats_request
          {
            ssr_type = c16 (u16 body_off);
            ssr_flags = c16 (u16 (body_off + 2));
            ssr_match = read_match region;
            ssr_table_id = c8 (u8 (region + 40));
            ssr_out_port = c16 (u16 (region + 42));
            ssr_port_no = c16 (u16 region);
            ssr_queue_port = c16 (u16 region);
            ssr_queue_id = c32 (u32 (region + 4));
          }
      end
      else if typ = C.Msg_type.barrier_request && blen = 0 then SBarrier_request
      else if typ = C.Msg_type.queue_get_config_request && blen = 4 then
        SQueue_get_config_request { sqgc_port = c16 (u16 body_off) }
      else if typ = C.Msg_type.vendor && blen = 4 then SVendor { sv_vendor = c32 (u32 body_off) }
      else raw_body ()
    with Lenient -> raw_body ()
  in
  {
    sm_type = c8 typ;
    sm_length = c16 (u16 2);
    sm_phys_len = len;
    sm_xid = c32 (u32 4);
    sm_body = body;
  }
