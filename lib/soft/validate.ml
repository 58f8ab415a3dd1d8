(* Replay-confirmed inconsistencies.

   A crosscheck inconsistency rests on the whole symbolic pipeline being
   right: the agents' symbolic semantics, grouping, the solver, and the
   witness extraction.  This module removes that trust by *re-executing*
   both agents on the concrete witness input (paper §4.2: every reported
   inconsistency comes with a replayable test case) and checking that the
   two concrete traces really diverge:

   - [Confirmed]: the replayed traces differ — the inconsistency is real,
     independent of the solver's answer;
   - [Refuted]: the replayed traces are identical — the report is wrong
     somewhere (a solver soundness bug, a grouping bug, a witness that
     does not select the claimed paths) and must not be shown as a
     finding;
   - [Replay_failed]: re-execution could not reproduce either claimed
     path (or itself raised) — the report is suspect and counts as
     unvalidated, not as confirmed.

   Replay runs each agent once in the engine's witness mode, so it shares
   the agent models but *not* the crosscheck's solver reasoning: every
   branch is decided by evaluating its condition under the witness, no
   solver is consulted, and the verdict is a syntactic comparison of
   normalized trace keys. *)

module Runner = Harness.Runner
module Test_spec = Harness.Test_spec
module Trace = Openflow.Trace

type status =
  | Confirmed
  | Refuted
  | Replay_failed of string

type result = {
  v_inc : Crosscheck.inconsistency;
  v_status : status;
  v_replay_a : Trace.result option; (* concrete trace of agent A, if replay reached one *)
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

let replay agent spec ~witness ~who =
  match Runner.execute_replay agent spec ~witness with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "%s: no explored path matches the witness" who)
  | exception Out_of_memory -> raise Out_of_memory
  | exception e -> Error (Printf.sprintf "%s: replay raised %s" who (Printexc.to_string e))

let validate_one agent_a agent_b (spec : Test_spec.t) (inc : Crosscheck.inconsistency) =
  let witness = inc.Crosscheck.i_witness in
  let ra = replay agent_a spec ~witness ~who:"agent-a" in
  let rb = replay agent_b spec ~witness ~who:"agent-b" in
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

let validate agent_a agent_b (spec : Test_spec.t) (outcome : Crosscheck.outcome) =
  let results =
    List.map (validate_one agent_a agent_b spec) outcome.Crosscheck.o_inconsistencies
  in
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

let pp fmt s =
  Format.fprintf fmt "@[<v>validation (%s vs %s on %s): %d confirmed, %d refuted, %d replay-failed@ "
    s.vs_agent_a s.vs_agent_b s.vs_test s.vs_confirmed s.vs_refuted s.vs_failed;
  List.iteri
    (fun i r -> Format.fprintf fmt "inconsistency %d: %a@ " i pp_result r)
    s.vs_results;
  Format.fprintf fmt "@]"
