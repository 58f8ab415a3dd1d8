(** Root-cause triage: classify inconsistencies into the behaviour classes
    of the paper's §5.1.2 and deduplicate reports per class (one underlying
    difference usually manifests as many reported inconsistencies — 58
    reports, 6 root causes in the paper's extreme case). *)

type cause_class =
  | Agent_crash  (** one agent terminates with an error *)
  | Missing_error  (** one agent errors, the other stays silent *)
  | Different_errors  (** both error, with different type/code *)
  | Rejected_vs_applied  (** error on one side, observable effect on the other *)
  | Forwarding_difference  (** both act on the packet, differently *)
  | State_difference  (** divergence visible only through probes *)
  | Other

val class_name : cause_class -> string

val classify : Crosscheck.inconsistency -> cause_class

type summary = {
  s_class : cause_class;
  s_count : int;
  s_example : Crosscheck.inconsistency;  (** one representative *)
}

val summarize : Crosscheck.outcome -> summary list
(** One entry per behaviour class present, most frequent first. *)

val exit_status : ?validation:Validate.summary -> Crosscheck.outcome -> int
(** Process exit status for an outcome: [0] clean; [1] inconsistencies
    (replay-confirmed ones when [validation] is given); [3] inconclusive —
    undecided or faulted pairs, or reported inconsistencies that
    validation refuted or failed to replay.  [1] outranks [3]: a
    confirmed divergence fails a scripted gate even if parts of the check
    also gave up.  ([2] is the CLI's usage-error status and is never
    produced here.) *)

val exit_of_counts : inconsistencies:int -> undecided:int -> faults:int -> int
(** The {!exit_status} policy from bare counters, for callers (the
    exploration {!Oracle}) that hold verdict counts instead of a
    {!Crosscheck.outcome}.  [faults] covers pair faults and quarantines. *)

val pp_summary : Format.formatter -> summary list -> unit
