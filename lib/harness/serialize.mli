(** On-disk interchange format for phase-1 results.  A vendor runs
    {!Runner.execute} privately and ships this file; the crosscheck phase
    consumes only these files — never agent code (paper §2.4). *)

type saved = {
  sv_agent : string;
  sv_test : string;
  sv_paths : (Openflow.Trace.result * Smt.Expr.boolean) list;
}

exception Format_error of string

val of_run : Runner.run -> saved

val write_channel : out_channel -> saved -> unit
val save : string -> saved -> unit

val load : string -> saved
(** @raise Format_error on malformed files,
    @raise Smt.Serial.Parse_error on malformed path conditions. *)
