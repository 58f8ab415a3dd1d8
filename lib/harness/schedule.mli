(** Explicit fault schedules: the record/replay currency of deterministic
    fault exploration.

    A {!Chaos} plan in Bernoulli mode decides each draw by a seeded coin;
    a {e schedule} instead names the exact draws that must fire.  A draw
    is identified by its {e site} — the injection point, the optional
    stream key (the crosscheck keys pair-scoped draws by pair index), and
    the zero-based index of the draw within that (point, key) stream.
    Because keyed draw indices count per key — not globally — a site is
    invariant under worker count and scheduling, which is what lets a
    schedule recorded at [-j 1] replay byte-identically at [-j 4].

    Schedules serialize to a compact line-oriented text format used for
    committed repro files:

    {v
    soft-schedule 1
    meta workload cs_flow_mods
    meta seed 7
    s solver-fault 3 0
    s checkpoint-truncate - 2
    sum <md5-hex of every preceding line>
    v}

    Site lines are emitted in sorted order and deduplicated, so equal
    schedules serialize to equal bytes; the [sum] trailer (the same
    idiom as checkpoints) rejects truncated or edited files
    instead of silently replaying the wrong fault pattern. *)

type site = {
  s_point : string;  (** a {!Chaos.point_name} *)
  s_key : int option;  (** keyed-stream key, [None] for the global stream *)
  s_index : int;  (** zero-based draw index within the (point, key) stream *)
}

val compare_site : site -> site -> int
(** Total order: point name, then key ([None] first), then index. *)

val pp_site : Format.formatter -> site -> unit

type t

val make : ?meta:(string * string) list -> site list -> t
(** Build a schedule; sites are sorted and deduplicated.  [meta] carries
    free-form provenance (workload name, originating seed, expectation) —
    keys must be nonempty and contain no spaces or newlines; values may
    be arbitrary bytes.
    @raise Invalid_argument on a malformed meta key or an empty site
    point name. *)

val sites : t -> site list
(** In sorted order. *)

val cardinal : t -> int
val mem : t -> site -> bool

val meta : t -> string -> string option
(** First binding of the key, if any. *)

val meta_all : t -> (string * string) list

val with_meta : (string * string) list -> t -> t
(** Replace the schedule's metadata (sites unchanged). *)

val to_string : t -> string
(** The canonical text form, [sum] trailer included.  Equal schedules
    with equal metadata render to equal bytes. *)

val of_string : string -> (t, string) result
(** Parse {!to_string}'s format.  Any defect — bad magic, malformed
    line, unparsable site, checksum mismatch — is an [Error] naming the
    offending line; a repro file is either trusted whole or not at all. *)

val save : string -> t -> unit
(** Write {!to_string} to a file (via a temp sibling and atomic rename). *)

val load : string -> (t, string) result
(** Read and {!of_string} a file; a missing file is an [Error]. *)

val pp : Format.formatter -> t -> unit
