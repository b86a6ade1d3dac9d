(** Write o0_checksums.txt: each suite program's output checksum under
    the unoptimized O0 configuration, the reference every grid cell is
    checked against.  Run once from the checkout root:
    [dune exec perfbench/gen_refs.exe > perfbench/o0_checksums.txt]. *)

let () =
  List.iter
    (fun (p : Rp_suite.Programs.program) ->
      let _, _, r =
        Rp_driver.Pipeline.compile_and_run ~config:Rp_driver.Config.o0 p.source
      in
      Printf.printf "%s\t%d\n" p.name r.Rp_exec.Interp.checksum)
    Rp_suite.Programs.all
