(** Symbolic OpenFlow 1.0 messages, built the way SOFT structures inputs
    (paper §3.2.1): structure concrete — message type (usually), claimed
    length (usually), number and wire length of actions — while field
    contents are symbolic variables.

    Action bodies are raw symbolic bytes reinterpreted per action type by
    the agents, because the action type itself is symbolic in the Packet
    Out and Flow Mod tests; this reproduces real parsing aliasing (the same
    wire bytes are a port for OUTPUT and a VLAN id for SET_VLAN_VID).

    {!to_sym_bytes} lays a message out as symbolic wire bytes; evaluating
    them under a solver model yields the concrete reproducer for an
    inconsistency. *)

open Smt

type sbv = Expr.bv

(** {1 Actions} *)

type saction = {
  a_type : sbv;  (** 16 bits; possibly symbolic *)
  a_len : sbv;  (** 16 bits; concrete under the input structuring *)
  a_body : sbv array;  (** one 8-bit expression per body byte *)
}

val body_u8 : saction -> int -> sbv
val body_u16 : saction -> int -> sbv
(** Big-endian views over the body bytes at a byte offset. *)

val body_u32 : saction -> int -> sbv
val body_mac : saction -> int -> sbv
val action_phys_len : saction -> int

val sym_action : prefix:string -> ?len:int -> unit -> saction
(** Fully symbolic action: symbolic type, concrete wire length [len]
    (default 8), symbolic body bytes named under [prefix]. *)

val sym_output_action : prefix:string -> unit -> saction
(** OUTPUT action with symbolic port and max_len. *)

val of_action : Types.action -> saction
(** Embed a concrete action (used by concrete messages in sequences). *)

val bytes_of_value : sbv -> int -> sbv array
(** Split a value into its big-endian bytes. *)

(** {1 Matches} *)

type smatch = {
  s_wildcards : sbv;  (** 32 *)
  s_in_port : sbv;  (** 16 *)
  s_dl_src : sbv;  (** 48 *)
  s_dl_dst : sbv;  (** 48 *)
  s_dl_vlan : sbv;  (** 16 *)
  s_dl_vlan_pcp : sbv;  (** 8 *)
  s_dl_type : sbv;  (** 16 *)
  s_nw_tos : sbv;  (** 8 *)
  s_nw_proto : sbv;  (** 8 *)
  s_nw_src : sbv;  (** 32 *)
  s_nw_dst : sbv;  (** 32 *)
  s_tp_src : sbv;  (** 16 *)
  s_tp_dst : sbv;  (** 16 *)
}

val sym_match : prefix:string -> unit -> smatch
(** Every field and the wildcard bits symbolic. *)

val sym_match_eth : prefix:string -> unit -> smatch
(** Only Ethernet-related fields symbolic; network/transport fields are
    concretized and forced fully wildcarded (the Eth FlowMod test). *)

val of_match : Types.of_match -> smatch
val wildcard_match : unit -> smatch

(** {1 Message bodies} *)

type spacket_out = {
  spo_buffer_id : sbv;  (** 32 *)
  spo_in_port : sbv;  (** 16 *)
  spo_actions : saction list;
  spo_data : Packet.Sym_packet.t option;
}

type sflow_mod = {
  sfm_match : smatch;
  sfm_cookie : sbv;  (** 64 *)
  sfm_command : sbv;  (** 16 *)
  sfm_idle_timeout : sbv;  (** 16 *)
  sfm_hard_timeout : sbv;  (** 16 *)
  sfm_priority : sbv;  (** 16 *)
  sfm_buffer_id : sbv;  (** 32 *)
  sfm_out_port : sbv;  (** 16 *)
  sfm_flags : sbv;  (** 16 *)
  sfm_actions : saction list;
}

type sswitch_config = { scfg_flags : sbv; smiss_send_len : sbv }

type sstats_request = {
  ssr_type : sbv;  (** 16; symbolic in the Stats Request test *)
  ssr_flags : sbv;
  ssr_match : smatch;  (** flow/aggregate view *)
  ssr_table_id : sbv;  (** 8 *)
  ssr_out_port : sbv;
  ssr_port_no : sbv;  (** port view *)
  ssr_queue_port : sbv;  (** queue view *)
  ssr_queue_id : sbv;  (** 32 *)
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
  | SQueue_get_config_request of { sqgc_port : sbv }
  | SVendor of { sv_vendor : sbv }
  | SRaw of sbv array  (** uninterpreted body bytes (Short Symb) *)

type t = {
  sm_type : sbv;  (** 8; symbolic only in Short Symb *)
  sm_length : sbv;  (** 16; the *claimed* length *)
  sm_phys_len : int;  (** bytes actually delivered on the wire *)
  sm_xid : sbv;  (** 32 *)
  sm_body : sbody;
}

(** {1 Builders} *)

val make : ?xid:sbv -> int -> sbody -> t
(** Concrete type and claimed length equal to the physical length — the
    standard input structuring. *)

val packet_out : ?xid:sbv -> spacket_out -> t
val flow_mod : ?xid:sbv -> sflow_mod -> t
val set_config : ?xid:sbv -> sswitch_config -> t
val barrier_request : ?xid:sbv -> unit -> t
val hello : ?xid:sbv -> unit -> t
val echo_request : ?xid:sbv -> sbv array -> t
val features_request : ?xid:sbv -> unit -> t
val get_config_request : ?xid:sbv -> unit -> t
val queue_get_config_request : ?xid:sbv -> sbv -> t

val sym_stats_request : prefix:string -> unit -> t
(** Stats type and claimed length symbolic; physical body sized for the
    largest request — covers all statistics subtypes. *)

val short_symbolic : prefix:string -> unit -> t
(** The Short Symb test: a 10-byte message where only the version is
    concrete. *)

val body_phys_len : sbody -> int
val actions_phys_len : saction list -> int

(** {1 Wire layout} *)

val to_sym_bytes : t -> sbv array
(** The message as symbolic wire bytes, header included. *)

val concretize_wire : Model.t -> t -> string
(** Evaluate the wire bytes under a model: the concrete reproducer. *)

exception Of_wire_error of string

val of_wire : string -> t
(** Lenient inverse of {!to_sym_bytes} over concrete reproducer bytes:
    every field comes back as a constant, [sm_length] is the header's
    {e claimed} length, [sm_phys_len] the actual byte count — the two may
    disagree, exactly as the witness intended.  A body that does not fit
    its type's structured layout decodes to [SRaw], matching what the
    agents' raw-fallback path dispatches on in process.  A stats
    request's port/queue-view fields are resolved from the wire bytes
    they alias (a real switch cannot see the independent variables the
    symbolic form carries); see the implementation note.  Reproducer
    validation uses this to rebuild the input a replay drives from the
    bytes alone.
    @raise Of_wire_error when shorter than a header. *)
