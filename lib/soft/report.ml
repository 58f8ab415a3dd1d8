(* Root-cause triage of inconsistencies.  The paper observes that one
   underlying difference usually manifests as many reported inconsistencies
   (58 reports, 6 root causes in the extreme Eth FlowMod case); this module
   classifies each inconsistency into the behaviour classes of §5.1.2 and
   deduplicates reports per class for human review. *)

module Trace = Openflow.Trace

type cause_class =
  | Agent_crash (* one agent terminates with an error *)
  | Missing_error (* one agent errors, the other stays silent *)
  | Different_errors (* both error, with different type/code *)
  | Rejected_vs_applied (* error on one side, observable effect on the other *)
  | Forwarding_difference (* both act on the packet, differently *)
  | State_difference (* divergence visible only through probes *)
  | Other

let class_name = function
  | Agent_crash -> "agent terminates with an error"
  | Missing_error -> "lack of error message"
  | Different_errors -> "different error / validation order"
  | Rejected_vs_applied -> "message rejected vs applied"
  | Forwarding_difference -> "forwarding difference / missing feature"
  | State_difference -> "state difference revealed by probe"
  | Other -> "other behavioural difference"

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let first_error (r : Trace.result) = List.find_opt (has_prefix "of:error") r.Trace.trace
let has_output (r : Trace.result) =
  List.exists (fun l -> has_prefix "dp:tx" l || has_prefix "of:packet_in" l) r.Trace.trace
let probe_lines (r : Trace.result) = List.filter (has_prefix "probe") r.Trace.trace
let is_silent (r : Trace.result) = r.Trace.trace = [] && r.Trace.crash = None

let classify (inc : Crosscheck.inconsistency) =
  let a = inc.Crosscheck.i_result_a and b = inc.i_result_b in
  if a.Trace.crash <> None || b.Trace.crash <> None then Agent_crash
  else
    match (first_error a, first_error b) with
    | Some _, None when is_silent b || not (has_output b) -> Missing_error
    | None, Some _ when is_silent a || not (has_output a) -> Missing_error
    | Some ea, Some eb when ea <> eb -> Different_errors
    | Some _, None | None, Some _ -> Rejected_vs_applied
    | Some _, Some _ | None, None ->
      if probe_lines a <> probe_lines b then State_difference
      else if has_output a || has_output b then Forwarding_difference
      else Other

type summary = {
  s_class : cause_class;
  s_count : int;
  s_example : Crosscheck.inconsistency;
}

(* One representative per behaviour class: the deduplication a human
   performs in the paper's analysis. *)
let summarize (o : Crosscheck.outcome) =
  let tbl : (cause_class, int ref * Crosscheck.inconsistency) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun inc ->
      let c = classify inc in
      match Hashtbl.find_opt tbl c with
      | Some (n, _) -> incr n
      | None -> Hashtbl.add tbl c (ref 1, inc))
    o.Crosscheck.o_inconsistencies;
  Hashtbl.fold (fun c (n, ex) acc -> { s_class = c; s_count = !n; s_example = ex } :: acc) tbl []
  |> List.sort (fun x y -> compare y.s_count x.s_count)

(* Exit-status policy for the CLI (and anything scripting it):
     0 — clean: no inconsistencies, nothing undecided, nothing unvalidated;
     1 — inconsistencies found (replay-confirmed ones, when validation ran);
     2 — usage error (mapped by the CLI, never produced here);
     3 — inconclusive: undecided pairs, faulted pairs, or reported
         inconsistencies that validation refuted or failed to replay.
   Finding a real divergence (1) outranks being inconclusive (3): a
   scripted gate must fail hard on a confirmed interoperability bug even
   if parts of the check also gave up. *)
(* Same policy from bare counters: the exploration oracle checks a
   faulted run's exit status against its observed counters without
   holding a [Crosscheck.outcome].  [faults] covers pair faults and
   quarantines — both leave pairs undecided. *)
let exit_of_counts ~inconsistencies ~undecided ~faults =
  if inconsistencies > 0 then 1 else if undecided > 0 || faults > 0 then 3 else 0

let exit_status ?validation (o : Crosscheck.outcome) =
  let confirmed, unvalidated =
    match validation with
    | None -> (Crosscheck.count o, 0)
    | Some v -> (v.Validate.vs_confirmed, Validate.unconfirmed v)
  in
  if confirmed > 0 then 1
  else if
    unvalidated > 0 || o.Crosscheck.o_pairs_undecided <> [] || o.Crosscheck.o_pair_faults > 0
  then 3
  else 0

let pp_summary fmt (ss : summary list) =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf fmt "%3d x %s@    e.g. %s@      vs %s@ " s.s_count (class_name s.s_class)
        (Trace.result_key s.s_example.Crosscheck.i_result_a)
        (Trace.result_key s.s_example.i_result_b))
    ss;
  Format.fprintf fmt "@]"
