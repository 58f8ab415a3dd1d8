(* On-disk interchange format for phase-1 results.  A vendor runs
   [Runner.execute] privately and ships this file; the crosscheck phase
   consumes only these files — never agent code (paper §2.4).

   Line-oriented format:
     soft-run 1
     agent NAME
     test ID
     path
     T trace-line          (zero or more)
     X crash-message       (optional)
     P sexp-path-condition
     ... repeated per path *)

module Trace = Openflow.Trace

type saved = {
  sv_agent : string;
  sv_test : string;
  sv_paths : (Trace.result * Smt.Expr.boolean) list;
}

let of_run (r : Runner.run) =
  {
    sv_agent = r.Runner.run_agent;
    sv_test = r.Runner.run_test;
    sv_paths = List.map (fun (p : Runner.path_record) -> (p.pr_result, p.pr_cond)) r.Runner.run_paths;
  }

let to_string (s : saved) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "soft-run 1\n";
  Printf.bprintf buf "agent %s\n" s.sv_agent;
  Printf.bprintf buf "test %s\n" s.sv_test;
  List.iter
    (fun ((res : Trace.result), cond) ->
      Buffer.add_string buf "path\n";
      List.iter (fun line -> Printf.bprintf buf "T %s\n" line) res.Trace.trace;
      (match res.Trace.crash with
       | Some m -> Printf.bprintf buf "X %s\n" m
       | None -> ());
      Printf.bprintf buf "P %s\n" (Smt.Serial.bool_to_string cond))
    s.sv_paths;
  Buffer.contents buf

let write_channel oc (s : saved) = output_string oc (to_string s)

let save path (s : saved) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc s)

exception Format_error of string

(* [what] names the source file in errors. *)
let parse ~what next_line =
  let expect_prefix p l =
    if String.length l >= String.length p && String.sub l 0 (String.length p) = p then
      String.sub l (String.length p) (String.length l - String.length p)
    else raise (Format_error (Printf.sprintf "%s: expected '%s...', got '%s'" what p l))
  in
  (match next_line () with
   | Some "soft-run 1" -> ()
   | _ -> raise (Format_error (what ^ ": bad magic")));
  let agent =
    match next_line () with
    | Some l -> expect_prefix "agent " l
    | None -> raise (Format_error (what ^ ": truncated"))
  in
  let test =
    match next_line () with
    | Some l -> expect_prefix "test " l
    | None -> raise (Format_error (what ^ ": truncated"))
  in
  let paths = ref [] in
  let cur_trace = ref [] in
  let cur_crash = ref None in
  let in_path = ref false in
  let flush_path cond =
    paths :=
      ({ Trace.trace = List.rev !cur_trace; crash = !cur_crash }, cond) :: !paths;
    cur_trace := [];
    cur_crash := None;
    in_path := false
  in
  let rec go () =
    match next_line () with
    | None ->
      if !in_path then raise (Format_error (what ^ ": path without condition"))
    | Some "path" ->
      if !in_path then raise (Format_error (what ^ ": nested path"));
      in_path := true;
      go ()
    | Some l when String.length l >= 2 && l.[0] = 'T' && l.[1] = ' ' ->
      cur_trace := String.sub l 2 (String.length l - 2) :: !cur_trace;
      go ()
    | Some l when String.length l >= 2 && l.[0] = 'X' && l.[1] = ' ' ->
      cur_crash := Some (String.sub l 2 (String.length l - 2));
      go ()
    | Some l when String.length l >= 2 && l.[0] = 'P' && l.[1] = ' ' ->
      let cond = Smt.Serial.bool_of_string (String.sub l 2 (String.length l - 2)) in
      flush_path cond;
      go ()
    | Some "" -> go ()
    | Some l -> raise (Format_error (what ^ ": unexpected line: " ^ l))
  in
  go ();
  { sv_agent = agent; sv_test = test; sv_paths = List.rev !paths }

let of_string ~what content =
  let lines = ref (String.split_on_char '\n' content) in
  let next_line () =
    match !lines with
    | [] | [ "" ] -> None
    | l :: rest ->
      lines := rest;
      Some l
  in
  parse ~what next_line

let load path =
  of_string ~what:path (In_channel.with_open_bin path In_channel.input_all)
