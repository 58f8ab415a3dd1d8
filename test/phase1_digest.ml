(* Prints the MD5 of the Phase-1 run file ([Harness.Serialize]) of ref,
   ovs and modified on packet_out and flow_mod (200 paths, random:1), one
   "agent test md5" line each.  Trace keys embed expression ids, so the
   bytes depend on everything the process interned before the runs; this
   executable interns nothing of its own first, so the digests depend on
   the libraries alone.  The engine suite's "phase-1 output pinned" test
   runs it. *)

let () =
  List.iter
    (fun spec ->
      List.iter
        (fun agent ->
          let run =
            Harness.Runner.execute ~max_paths:200 ~strategy:(Symexec.Strategy.Random 1)
              agent (spec ())
          in
          let file = Filename.temp_file "phase1" ".run" in
          Harness.Serialize.save file (Harness.Serialize.of_run run);
          Printf.printf "%s %s %s\n" run.Harness.Runner.run_agent run.run_test
            (Digest.to_hex (Digest.file file));
          Sys.remove file)
        Switches.[ Reference_switch.agent; Open_vswitch.agent; Modified_switch.agent ])
    Harness.Test_spec.[ packet_out; flow_mod ]
