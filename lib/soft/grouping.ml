(* SOFT's "group" tool (paper §3.4, §4.2): collapse the per-path results of
   one agent into one group per distinct normalized output result, with the
   group's input subspace expressed as a *balanced* disjunction of the
   member path conditions — the balanced or-tree minimizes the nesting
   depth handed to the solver, amortizing large queries exactly as the
   paper's grouping tool does. *)

open Smt
module Trace = Openflow.Trace

type group = {
  g_result : Trace.result;
  g_key : string; (* [Trace.result_key g_result] *)
  g_cond : Expr.boolean; (* disjunction of member path conditions *)
  g_member_conds : Expr.boolean list; (* the individual path conditions *)
  g_path_count : int;
}

type grouped = {
  gr_agent : string;
  gr_test : string;
  gr_groups : group list;
  gr_group_time : float; (* seconds spent grouping (Table 3) *)
}

let group_paths paths =
  let tbl : (string, Trace.result * Expr.boolean list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun ((res : Trace.result), cond) ->
      let key = Trace.result_key res in
      match Hashtbl.find_opt tbl key with
      | Some (_, conds) -> conds := cond :: !conds
      | None ->
        Hashtbl.add tbl key (res, ref [ cond ]);
        order := key :: !order)
    paths;
  List.rev_map
    (fun key ->
      let res, conds = Hashtbl.find tbl key in
      let members = List.rev !conds in
      {
        g_result = res;
        g_key = key;
        g_cond = Expr.balanced_disj members;
        g_member_conds = members;
        g_path_count = List.length members;
      })
    !order

let of_saved (s : Harness.Serialize.saved) =
  let t0 = Mono.now () in
  let groups = group_paths s.Harness.Serialize.sv_paths in
  {
    gr_agent = s.sv_agent;
    gr_test = s.sv_test;
    gr_groups = groups;
    gr_group_time = Mono.elapsed t0;
  }

let of_run (r : Harness.Runner.run) = of_saved (Harness.Serialize.of_run r)

let distinct_results g = List.length g.gr_groups

let pp fmt g =
  Format.fprintf fmt "@[<v>%s/%s: %d distinct results from %d paths (%.3fs)@ " g.gr_agent
    g.gr_test (distinct_results g)
    (List.fold_left (fun acc grp -> acc + grp.g_path_count) 0 g.gr_groups)
    g.gr_group_time;
  List.iteri
    (fun i grp ->
      Format.fprintf fmt "  [%d] %d paths: %s@ " i grp.g_path_count
        (if grp.g_key = "" then "<no output>" else grp.g_key))
    g.gr_groups;
  Format.fprintf fmt "@]"
