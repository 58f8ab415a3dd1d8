(** SOFT's "group" tool (paper §3.4, §4.2): collapse per-path results into
    one group per distinct normalized output, the group's input subspace
    being the balanced-tree disjunction of the member path conditions.
    Grouping is what reduces solver queries from |paths_A|·|paths_B| to
    |RES_A|·|RES_B| — the 1–5 orders of magnitude of Table 3. *)

type group = {
  g_result : Openflow.Trace.result;
  g_key : string;  (** [Trace.result_key g_result] *)
  g_cond : Smt.Expr.boolean;  (** disjunction of member path conditions *)
  g_member_conds : Smt.Expr.boolean list;
  g_path_count : int;
}

type grouped = {
  gr_agent : string;
  gr_test : string;
  gr_groups : group list;
  gr_group_time : float;  (** seconds spent grouping (Table 3) *)
}

val group_paths : (Openflow.Trace.result * Smt.Expr.boolean) list -> group list

val of_saved : Harness.Serialize.saved -> grouped
(** Group a phase-1 run loaded from disk (the decoupled workflow). *)

val of_run : Harness.Runner.run -> grouped

val distinct_results : grouped -> int
val pp : Format.formatter -> grouped -> unit

