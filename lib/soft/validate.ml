(* Replay-confirmed inconsistencies.

   A crosscheck inconsistency rests on the whole symbolic pipeline being
   right: the agents' symbolic semantics, grouping, the solver, and the
   witness extraction.  This module removes that trust by *re-executing*
   both agents on the witness (paper §4.2: every reported inconsistency
   comes with a replayable test case) and comparing the two normalized
   trace keys ([Trace.result_key]) as strings:

   - [Confirmed]: the replayed keys differ;
   - [Refuted]: the replayed keys are identical — the report is wrong
     somewhere (a solver soundness bug, a grouping bug, a witness that
     does not select the claimed paths) and must not be shown as a
     finding;
   - [Replay_failed]: re-execution could not reproduce either claimed
     path (or itself raised) — the report is suspect and counts as
     unvalidated, not as confirmed.

   Two replays share that verdict logic and differ in what they feed the
   agents.  [validate] runs each agent once in the engine's witness mode
   on the spec's symbolic inputs: every branch is decided by evaluating
   its condition under the witness and no solver is consulted, but the
   trace keys still print the symbolic expressions the path computed
   (e.g. [dp:tx(e159,...)]), so two agents that compute the same value
   differently compare as different.  [validate_reproducers] replays the
   reproducer bytes instead: each input is concretized under the witness
   and decoded back into constants, so the keys compare what the two
   agents do on the concrete test case [--cases] prints. *)

module Runner = Harness.Runner
module Test_spec = Harness.Test_spec
module Trace = Openflow.Trace
module Sym_msg = Openflow.Sym_msg
module SP = Packet.Sym_packet

type status =
  | Confirmed
  | Refuted
  | Replay_failed of string

type result = {
  v_inc : Crosscheck.inconsistency;
  v_status : status;
  v_replay_a : Trace.result option; (* agent A's replayed trace, if replay reached one *)
  v_replay_b : Trace.result option;
}

type summary = {
  vs_agent_a : string;
  vs_agent_b : string;
  vs_test : string;
  vs_confirmed : int;
  vs_refuted : int;
  vs_failed : int;
  vs_results : result list;
}

let status_name = function
  | Confirmed -> "confirmed"
  | Refuted -> "REFUTED"
  | Replay_failed _ -> "replay-failed"

(* One agent's replay: [Some trace], [None] when it reached no path
   ([none] says how), or an exception, which becomes a failure too. *)
let attempt ~who ~none f =
  match f () with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "%s: %s" who none)
  | exception Out_of_memory -> raise Out_of_memory
  | exception e -> Error (Printf.sprintf "%s: replay raised %s" who (Printexc.to_string e))

let verdict inc ra rb =
  let status =
    match (ra, rb) with
    | Ok ta, Ok tb ->
      if Trace.result_key ta <> Trace.result_key tb then Confirmed else Refuted
    | Error e, Ok _ | Ok _, Error e -> Replay_failed e
    | Error ea, Error eb -> Replay_failed (ea ^ "; " ^ eb)
  in
  {
    v_inc = inc;
    v_status = status;
    v_replay_a = (match ra with Ok t -> Some t | Error _ -> None);
    v_replay_b = (match rb with Ok t -> Some t | Error _ -> None);
  }

let summarize (outcome : Crosscheck.outcome) results =
  let count st =
    List.length
      (List.filter
         (fun r ->
           match (r.v_status, st) with
           | Confirmed, `C | Refuted, `R | Replay_failed _, `F -> true
           | _ -> false)
         results)
  in
  {
    vs_agent_a = outcome.Crosscheck.o_agent_a;
    vs_agent_b = outcome.Crosscheck.o_agent_b;
    vs_test = outcome.Crosscheck.o_test;
    vs_confirmed = count `C;
    vs_refuted = count `R;
    vs_failed = count `F;
    vs_results = results;
  }

let validate_one agent_a agent_b (spec : Test_spec.t) (inc : Crosscheck.inconsistency) =
  let witness = inc.Crosscheck.i_witness in
  let replay agent who =
    attempt ~who ~none:"no explored path matches the witness" (fun () ->
        Runner.execute_replay agent spec ~witness)
  in
  verdict inc (replay agent_a "agent-a") (replay agent_b "agent-b")

let validate agent_a agent_b (spec : Test_spec.t) (outcome : Crosscheck.outcome) =
  summarize outcome
    (List.map (validate_one agent_a agent_b spec) outcome.Crosscheck.o_inconsistencies)

(* The spec with every input replaced by its reproducer: a message by the
   decoding of its concrete wire bytes, a probe by its concrete packet. *)
let reproducer_spec (spec : Test_spec.t) witness =
  let concrete = function
    | Test_spec.Msg m -> Test_spec.Msg (Sym_msg.of_wire (Sym_msg.concretize_wire witness m))
    | Test_spec.Probe p ->
      Test_spec.Probe { p with pr_packet = SP.of_concrete (SP.to_concrete witness p.pr_packet) }
    | Test_spec.Advance_time _ as t -> t
  in
  { spec with Test_spec.inputs = List.map concrete spec.Test_spec.inputs }

let validate_reproducers agent_a agent_b (spec : Test_spec.t) (outcome : Crosscheck.outcome) =
  let replay inc agent who =
    attempt ~who ~none:"replay explored no path" (fun () ->
        match Runner.execute agent (reproducer_spec spec inc.Crosscheck.i_witness) with
        | { Runner.run_paths = p :: _; _ } -> Some p.Runner.pr_result
        | { Runner.run_paths = []; _ } -> None)
  in
  summarize outcome
    (List.map
       (fun inc -> verdict inc (replay inc agent_a "agent-a") (replay inc agent_b "agent-b"))
       outcome.Crosscheck.o_inconsistencies)

(* Inconsistencies whose replay did not confirm them; nonzero means the
   report cannot be fully trusted as-is. *)
let unconfirmed s = s.vs_refuted + s.vs_failed

let all_confirmed s = unconfirmed s = 0

let pp_result fmt r =
  Format.fprintf fmt "%s" (status_name r.v_status);
  (match r.v_status with
   | Replay_failed msg -> Format.fprintf fmt " (%s)" msg
   | Confirmed | Refuted -> ());
  match (r.v_replay_a, r.v_replay_b) with
  | Some ta, Some tb ->
    Format.fprintf fmt "@   replay a: %s@   replay b: %s" (Trace.result_key ta)
      (Trace.result_key tb)
  | _ -> ()

let pp_titled title fmt s =
  Format.fprintf fmt "@[<v>%s (%s vs %s on %s): %d confirmed, %d refuted, %d replay-failed@ "
    title s.vs_agent_a s.vs_agent_b s.vs_test s.vs_confirmed s.vs_refuted s.vs_failed;
  List.iteri
    (fun i r -> Format.fprintf fmt "inconsistency %d: %a@ " i pp_result r)
    s.vs_results;
  Format.fprintf fmt "@]"

let pp = pp_titled "validation"
