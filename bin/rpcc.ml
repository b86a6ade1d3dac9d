(** rpcc — the register-promotion C compiler driver.

    {v
      rpcc run file.c        compile + execute, print output and counts
      rpcc dump file.c       compile, print the final IL
      rpcc table file.c      the paper's 4-configuration comparison
      rpcc fuzz              fault-injection campaign on the pipeline
      rpcc gen-fuzz          generative differential testing vs an O0 reference
      rpcc reduce file.c     delta-debug an oracle failure to a minimal repro
      rpcc serve             crash-tolerant compile/run daemon (cached)
      rpcc client OP ...     send one request to a running daemon
    v}

    Exit codes (uniform across every subcommand): 0 success, 1 a finding —
    a runtime trap in the interpreted program, a differential divergence,
    or a fault-injection escape; 2 a usage or internal error — bad input,
    front-end rejection, invalid IL, compiler crash; 3 a resource limit —
    fuel, call depth, or wall-clock deadline exhausted; 130 interrupted
    (SIGINT), after flushing any campaign journal. *)

open Cmdliner
open Rp_driver

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Shared flags                                                        *)
(* ------------------------------------------------------------------ *)

let analysis_conv =
  Arg.enum
    [ ("none", Config.Anone); ("modref", Config.Amodref);
      ("steens", Config.Asteens); ("pointer", Config.Apointer) ]

let analysis_t =
  Arg.(
    value
    & opt analysis_conv Config.Amodref
    & info [ "analysis" ] ~docv:"KIND"
        ~doc:"Interprocedural analysis: none, modref, steens, or pointer.")

let promote_t =
  Arg.(
    value & opt bool true
    & info [ "promote" ] ~docv:"BOOL" ~doc:"Enable register promotion (§3.1).")

let ptr_promote_t =
  Arg.(
    value & flag
    & info [ "ptr-promote" ]
        ~doc:"Enable pointer-based promotion (§3.3).")

let always_store_t =
  Arg.(
    value & flag
    & info [ "always-store" ]
        ~doc:
          "Store every lifted tag at loop exits even if it was never stored \
           inside the loop (the paper's literal scheme).")

let throttle_t =
  Arg.(
    value & flag
    & info [ "throttle" ]
        ~doc:
          "Enable the pressure-aware promotion throttle (the paper's §7 \
           proposal): keep the least-referenced promotable values in memory \
           when a loop's estimated register pressure would exceed the \
           register count.")

let dse_t =
  Arg.(
    value & flag
    & info [ "dse" ]
        ~doc:
          "Enable global dead-store elimination over memory tags (a §3.4 \
           extension; not part of the paper's compiler).")

let opt_t =
  Arg.(
    value & opt bool true
    & info [ "opt" ] ~docv:"BOOL"
        ~doc:"Run the scalar optimizer (VN, const-prop, LICM, PRE, DCE).")

let regalloc_t =
  Arg.(
    value & opt bool true
    & info [ "regalloc" ] ~docv:"BOOL" ~doc:"Run the register allocator.")

let k_t =
  Arg.(
    value & opt int 24
    & info [ "k"; "registers" ] ~docv:"N" ~doc:"Physical register count.")

let verify_passes_t =
  Arg.(
    value & flag
    & info [ "verify-passes" ]
        ~doc:
          "Translation validation: check the IL after every optimization \
           pass and roll back (recording the pass as degraded in the stats) \
           any pass that produces ill-formed IL, instead of failing the \
           compile.")

let oracle_t =
  Arg.(
    value & flag
    & info [ "oracle" ]
        ~doc:
          "Stronger translation validation (implies --verify-passes): \
           additionally execute the IL before and after every pass with \
           bounded fuel and roll back any pass that changes the program's \
           output or checksum, or unsoundly regresses its dynamic operation \
           count.")

let analysis_budget_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "analysis-budget" ] ~docv:"N"
        ~doc:
          "Cap the interprocedural analyses' fixpoint iterations.  An \
           exhausted budget degrades the compile to the conservative no-\
           analysis answer (reported as converged=false in the stats); it \
           never aborts it.")

let file_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c")

let config_t =
  let mk analysis promote ptr_promote always_store throttle dse optimize
      regalloc k verify_passes oracle analysis_budget =
    { Config.analysis; promote; ptr_promote; always_store; throttle; dse;
      optimize; regalloc; k; verify_passes; oracle; analysis_budget }
  in
  Term.(
    const mk $ analysis_t $ promote_t $ ptr_promote_t $ always_store_t
    $ throttle_t $ dse_t $ opt_t $ regalloc_t $ k_t $ verify_passes_t
    $ oracle_t $ analysis_budget_t)

(* Execution resource limits, shared by run and run-il. *)
let fuel_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Abort execution after N dynamic operations (exit code 3). \
           Default: 400M.")

let max_depth_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-depth" ] ~docv:"N"
        ~doc:
          "Abort execution when the call stack exceeds N frames (exit code \
           3).  Default: 100k.")

let exits =
  Cmd.Exit.info 0 ~doc:"on success."
  :: Cmd.Exit.info 1
       ~doc:
         "on a finding: a runtime trap in the interpreted program, a \
          differential divergence, or a fault-injection escape."
  :: Cmd.Exit.info 2
       ~doc:
         "on a usage or internal error: front-end rejection, invalid IL, \
          or a compiler crash."
  :: Cmd.Exit.info 3
       ~doc:
         "on a resource limit: execution fuel, call stack, or wall-clock \
          deadline exhausted (see $(b,--fuel), $(b,--max-depth), \
          $(b,--timeout))."
  :: Cmd.Exit.info 130
       ~doc:"when interrupted (SIGINT), after flushing any campaign journal."
  :: Cmd.Exit.defaults

let handle_errors f =
  try f () with
  | Rp_minic.Srcloc.Error (loc, msg) ->
    Fmt.epr "error: %s@." (Rp_minic.Srcloc.to_string (loc, msg));
    exit 2
  | Rp_ir.Serial.Parse_error (ln, msg) ->
    Fmt.epr "error: IL line %d: %s@." ln msg;
    exit 2
  | Rp_ir.Validate.Invalid (ctx, msg) ->
    Fmt.epr "error: invalid IL after %s:@.%s@." ctx msg;
    exit 2
  | Rp_exec.Interp.Resource_limit msg ->
    Fmt.epr "resource limit: %s@." msg;
    exit 3
  | Rp_exec.Value.Runtime_error msg ->
    Fmt.epr "runtime error: %s@." msg;
    exit 1
  | Stack_overflow ->
    Fmt.epr "error: compiler stack overflow@.";
    exit 2
  | Failure msg ->
    Fmt.epr "error: %s@." msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

module Json = Rp_support.Json

(** The [--stats-json] document: schema marker, the pipeline's stats
    (counters, fixpoint iterations, degradation/validation state, per-pass
    timings), the supervision layer's resilience counters, and the dynamic
    execution result.  Schema history: rpcc-stats/1 lacked the
    converged/degraded/validated_passes keys; rpcc-stats/2 lacked
    resilience; rpcc-stats/3 lacked the canonical [config_name] key
    (its [config] pretty-print does not distinguish [+ptrpromote]);
    rpcc-stats/4's resilience object lacked the [failovers]/[respawns]
    counters, which rpcc-stats/5 carried and rpcc-stats/6 dropped;
    rpcc-stats/6's also counted trips of a per-key failure cut-off, a
    counter rpcc-stats/7 dropped; rpcc-stats/7 printed no document at
    all for a run that hit a resource limit, where rpcc-stats/8 prints
    one whose [result] is [null]. *)
let run_json config (st : Pipeline.stage_stats) resil
    (r : Rp_exec.Interp.result option) =
  match Pipeline.stats_json config st with
  | Json.Obj fields ->
    Json.Obj
      (("schema", Json.Str "rpcc-stats/8")
       :: fields
      @ [
          ("resilience", Rp_support.Resilience.to_json resil);
          ( "result",
            match r with
            | None -> Json.Null
            | Some r ->
              Json.Obj
                [
                  ("ops", Json.Int r.Rp_exec.Interp.total.Rp_exec.Interp.ops);
                  ( "loads",
                    Json.Int r.Rp_exec.Interp.total.Rp_exec.Interp.loads );
                  ( "stores",
                    Json.Int r.Rp_exec.Interp.total.Rp_exec.Interp.stores );
                  ("checksum", Json.Int r.Rp_exec.Interp.checksum);
                ] );
        ])
  | j -> j

let run_cmd =
  let run config file quiet stats_json fuel max_depth timeout native cc_flags =
    handle_errors @@ fun () ->
    (match timeout with
    | Some t when not (t > 0.) -> Rp_cli.usage "--timeout must be > 0"
    | _ -> ());
    let src = read_file file in
    let resil = Rp_support.Resilience.create () in
    (* --native: same compile, but execution through the compiled-C
       backend — counts and trap behaviour are byte-identical to the
       interpreter, run time is the binary's.  Infrastructure failure
       (no cc, compile error, garbled trailer) is exit 2, never a
       silently different result. *)
    let native_cc =
      if not native then None
      else
        let flags =
          List.filter (fun f -> f <> "") (String.split_on_char ' ' cc_flags)
        in
        (* probe through the binary cache's identity rung: a warm rerun
           spawns no `cc --version` subprocess at all *)
        let cache =
          Rp_support.Cas.open_ (Rp_backend.Native.default_cache_dir ())
        in
        match Rp_backend.Native.find_cc ~cache ~flags () with
        | Some cc -> Some (cc, cache)
        | None ->
          Fmt.epr
            "error: --native needs a working C compiler (probed `cc \
             --version`)@.";
          exit 2
    in
    let prog, st = Pipeline.compile ~config src in
    let execute () =
      try
        match native_cc with
        | None -> Rp_exec.Interp.run ?fuel ?max_depth ?deadline:timeout prog
        | Some (cc, cache) ->
          Rp_backend.Native.run ?fuel ?max_depth ?deadline:timeout ~cache ~cc
            prog
      with
      | Rp_exec.Interp.Resource_limit m as e ->
        if timeout <> None && Rp_exec.Interp.is_external_stop m then
          Rp_support.Resilience.tick resil Rp_support.Resilience.Timeout;
        raise e
      | Rp_backend.Native.Error m ->
        Fmt.epr "error: native backend: %s@." m;
        exit 2
    in
    let r =
      try execute ()
      with Rp_exec.Interp.Resource_limit _ as e when stats_json ->
        (* the document still reports the compile and the resilience
           counters; the limit keeps its stderr line and exit code *)
        print_string (Json.to_string (run_json config st resil None));
        raise e
    in
    if stats_json then
      (* pure JSON on stdout; program output is suppressed so the document
         stays machine-parseable *)
      print_string (Json.to_string (run_json config st resil (Some r)))
    else begin
      if not quiet then print_string r.Rp_exec.Interp.output;
      Fmt.pr "; config: %a@." Config.pp config;
      Fmt.pr "; ops=%d loads=%d stores=%d checksum=%d@."
        r.Rp_exec.Interp.total.Rp_exec.Interp.ops
        r.Rp_exec.Interp.total.Rp_exec.Interp.loads
        r.Rp_exec.Interp.total.Rp_exec.Interp.stores r.Rp_exec.Interp.checksum;
      Fmt.pr "; promoted=%d ptr_promoted=%d hoisted=%d spilled=%d@."
        st.Pipeline.promoted st.Pipeline.ptr_promoted st.Pipeline.hoisted
        st.Pipeline.spilled;
      if Rp_support.Resilience.any resil then
        Fmt.pr "; resilience: %a@." Rp_support.Resilience.pp resil
    end
  in
  let quiet_t =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress program output.")
  in
  let stats_json_t =
    Arg.(
      value & flag
      & info [ "stats-json" ]
          ~doc:
            "Emit compile statistics (counters, analysis fixpoint \
             iterations, per-pass wall-clock timings), resilience \
             counters, and dynamic counts as a single JSON document \
             instead of the human-readable report.")
  in
  let timeout_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock deadline for execution, in seconds (must be > 0); \
             exceeding it aborts with exit code 3 (like fuel exhaustion) \
             and is counted in the stats' resilience object.")
  in
  let native_t =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Execute through the compiled-C backend: emit C from the \
             post-regalloc IR, compile it with the system C compiler \
             (binaries are cached), and run at hardware speed.  Output, \
             checksum, dynamic counts, and trap messages are identical \
             to the interpreter's.")
  in
  let cc_flags_t =
    Arg.(
      value & opt string "-O1"
      & info [ "cc-flags" ] ~docv:"FLAGS"
          ~doc:
            "Space-separated flags for the system C compiler under \
             $(b,--native) (part of the binary cache key).")
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:"Compile and execute, reporting dynamic counts.")
    Term.(
      const run $ config_t $ file_t $ quiet_t $ stats_json_t $ fuel_t
      $ max_depth_t $ timeout_t $ native_t $ cc_flags_t)

let dump_cmd =
  let dump config file stage format =
    handle_errors @@ fun () ->
    let src = read_file file in
    let p =
      match stage with
      | `Front -> Rp_irgen.Irgen.compile_source src
      | `Final -> fst (Pipeline.compile ~config src)
    in
    match format with
    | `Pretty -> Fmt.pr "%a@." Rp_ir.Program.pp p
    | `Il -> print_string (Rp_ir.Serial.write p)
  in
  let stage_t =
    Arg.(
      value
      & opt (enum [ ("front", `Front); ("final", `Final) ]) `Final
      & info [ "stage" ] ~docv:"STAGE"
          ~doc:"Which IL to print: front (pre-optimization) or final.")
  in
  let format_t =
    Arg.(
      value
      & opt (enum [ ("pretty", `Pretty); ("il", `Il) ]) `Pretty
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: pretty (human-readable) or il (the exact \
             machine-readable serialization accepted by run-il).")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Compile and print the IL.")
    Term.(const dump $ config_t $ file_t $ stage_t $ format_t)

let run_il_cmd =
  let run file quiet fuel max_depth =
    handle_errors @@ fun () ->
    let p =
      try Rp_ir.Serial.read (read_file file)
      with Rp_ir.Serial.Parse_error (ln, msg) ->
        Fmt.epr "error: %s:%d: %s@." file ln msg;
        exit 2
    in
    Rp_ir.Validate.assert_ok ~ctx:"parse" p;
    let r = Rp_exec.Interp.run ?fuel ?max_depth p in
    if not quiet then print_string r.Rp_exec.Interp.output;
    Fmt.pr "; ops=%d loads=%d stores=%d checksum=%d@."
      r.Rp_exec.Interp.total.Rp_exec.Interp.ops
      r.Rp_exec.Interp.total.Rp_exec.Interp.loads
      r.Rp_exec.Interp.total.Rp_exec.Interp.stores r.Rp_exec.Interp.checksum
  in
  let file_il_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.il")
  in
  let quiet_t =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress program output.")
  in
  Cmd.v
    (Cmd.info "run-il" ~exits
       ~doc:"Execute a serialized IL file (as produced by dump --format il).")
    Term.(const run $ file_il_t $ quiet_t $ fuel_t $ max_depth_t)

let table_cmd =
  let table file k =
    handle_errors @@ fun () ->
    let src = read_file file in
    Fmt.pr "%-10s %-8s %10s %10s %10s %9s@." "metric" "analysis" "without"
      "with" "difference" "% removed";
    let results =
      List.map
        (fun (name, cfg) ->
          let cfg = { cfg with Config.k } in
          let (_, _, r) = Pipeline.compile_and_run ~config:cfg src in
          (name, r))
        Config.paper_grid
    in
    let find n = List.assoc n results in
    let row metric pick =
      List.iter
        (fun analysis ->
          let without = pick (find (analysis ^ "/without")) in
          let with_ = pick (find (analysis ^ "/with")) in
          let diff = without - with_ in
          let pct =
            if without = 0 then 0.
            else 100. *. float_of_int diff /. float_of_int without
          in
          Fmt.pr "%-10s %-8s %10d %10d %10d %9.2f@." metric analysis without
            with_ diff pct)
        [ "modref"; "pointer" ]
    in
    let total (r : Rp_exec.Interp.result) = r.Rp_exec.Interp.total in
    row "ops" (fun r -> (total r).Rp_exec.Interp.ops);
    row "stores" (fun r -> (total r).Rp_exec.Interp.stores);
    row "loads" (fun r -> (total r).Rp_exec.Interp.loads)
  in
  Cmd.v
    (Cmd.info "table" ~exits
       ~doc:
         "Run the paper's configuration-grid comparison (including the \
          §3.3 pointer-promotion cells) on one file.")
    Term.(const table $ file_t $ k_t)

(* The fuzz tools share one seed flag so every campaign — fault injection
   and generative — is replayed the same way. *)
let seed_t =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "RNG seed for the campaign.  Printed in every failure report; \
           rerunning with the same seed reproduces the identical trial \
           sequence.")

let trials_t ~doc =
  Arg.(value & opt int 50 & info [ "trials"; "seeds" ] ~docv:"N" ~doc)

let fuzz_cmd =
  let fuzz seed trials campaign =
    handle_errors @@ fun () ->
    let module F = Rp_fuzz.Faultgen in
    let resil = Rp_support.Resilience.create () in
    let results =
      Rp_cli.run_campaign campaign
        ~id:[ "fuzz"; string_of_int seed ]
        ~resilience:resil ~name:string_of_int
        ~encode:(fun t -> Some (F.trial_json t))
        ~decode:F.trial_of_json (F.trial ~seed) (List.init trials Fun.id)
    in
    List.iteri
      (fun i -> function
        | Ok _ -> ()
        | Error f -> Fmt.epr "trial %d: %a@." i Rp_support.Pool.pp_job_failure f)
      results;
    if Rp_support.Resilience.any resil then
      Fmt.epr "; resilience: %a@." Rp_support.Resilience.pp resil;
    let report = F.report ~seed (List.filter_map Result.to_option results) in
    Fmt.pr "%a" F.pp_report report;
    let escapes = F.total_escapes report in
    Fmt.pr "; seed=%d, %d trials, %d escapes@." seed report.F.trials escapes;
    if escapes > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits
       ~doc:
         "Run a fault-injection campaign against the pipeline's isolation \
          and translation-validation machinery: corrupt the IL (dropped \
          stores, shrunk tag sets, dangling branch targets, out-of-range \
          registers) or raise inside a pass, and assert every fault is \
          contained.  Exits 1 if any fault escapes undetected.")
    Term.(
      const fuzz $ seed_t
      $ trials_t ~doc:"Number of fault-injection trials."
      $ Rp_cli.campaign_t)

(* ------------------------------------------------------------------ *)
(* Generative differential testing                                     *)
(* ------------------------------------------------------------------ *)

let mode_t =
  let plain =
    Arg.(
      value & flag
      & info [ "plain" ]
          ~doc:
            "Disable the hardened pipeline during grid compiles: pure \
             end-to-end comparison against the O0 reference.")
  in
  let oracle =
    Arg.(
      value & flag
      & info [ "oracle-passes" ]
          ~doc:
            "Arm the full per-pass execution oracle during grid compiles \
             (catches unsound dynamic-count regressions and names the \
             offending pass; every guarded pass runs the program twice).")
  in
  let combine plain oracle =
    if oracle then Rp_fuzz.Difforacle.OraclePasses
    else if plain then Rp_fuzz.Difforacle.Plain
    else Rp_fuzz.Difforacle.Verify
  in
  Term.(const combine $ plain $ oracle)

let inject_t =
  let classes =
    List.map
      (fun c -> (Rp_fuzz.Faultgen.class_name c, c))
      Rp_fuzz.Faultgen.all_classes
  in
  Arg.(
    value
    & opt (some (enum classes)) None
    & info [ "inject" ] ~docv:"CLASS"
        ~doc:
          "Plant a fault of this class (e.g. drop_store) inside the first \
           guarded pass of every grid compile — never the reference.  For \
           demonstrating and testing the oracle end to end.")

let oracle_fuel_t =
  Arg.(
    value
    & opt int Rp_fuzz.Difforacle.default_fuel
    & info [ "fuel" ] ~docv:"N" ~doc:"Reference-run fuel for the oracle.")

let budget_t =
  Arg.(
    value & opt float 30.
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget for reduction; timeouts are quarantined.")

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(** Shrink [src] against the signature of [target] and write the result
    next to [path]; shared by [gen-fuzz --reduce] and [rpcc reduce]. *)
let reduce_failure ~mode ~fuel ~inject ~budget ~path ~out
    (target : Rp_fuzz.Difforacle.failure) src =
  let module D = Rp_fuzz.Difforacle in
  let module Reduce = Rp_fuzz.Reduce in
  let deadline = Rp_support.Clock.now () +. budget in
  let predicate s =
    match D.check ~mode ~fuel ~deadline ?inject s with
    | D.Diverged fs
      when List.exists
             (fun (f : D.failure) ->
               f.D.config = target.D.config && f.D.cls = target.D.cls)
             fs ->
      Reduce.Fail
    | D.Inconclusive _ -> Reduce.Quarantine
    | _ -> Reduce.Pass
  in
  let r = Reduce.run ~budget ~predicate src in
  let out =
    match out with
    | Some o -> o
    | None ->
      (if Filename.check_suffix path ".c" then Filename.chop_suffix path ".c"
       else path)
      ^ ".min.c"
  in
  write_file out r.Reduce.reduced;
  Fmt.pr
    "reduced %d -> %d lines (%d candidates, %d accepted, %d quarantined%s) \
     -> %s@."
    r.Reduce.original_lines r.Reduce.reduced_lines r.Reduce.candidates
    r.Reduce.accepted r.Reduce.quarantined
    (if r.Reduce.deadline_hit then ", budget hit" else "")
    out;
  r

(* The flags that replay a gen-fuzz finding: its mode and injected fault. *)
let replay_flags mode inject =
  (match mode with
  | Rp_fuzz.Difforacle.Plain -> " --plain"
  | Rp_fuzz.Difforacle.Verify -> ""
  | Rp_fuzz.Difforacle.OraclePasses -> " --oracle-passes")
  ^
  match inject with
  | Some (c, _) -> " --inject " ^ Rp_fuzz.Faultgen.class_name c
  | None -> ""

let gen_fuzz_cmd =
  let gen_fuzz seed trials mode inject fuel do_reduce budget out_dir campaign
      native =
    handle_errors @@ fun () ->
    let module D = Rp_fuzz.Difforacle in
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let native_cc =
      if not native then None
      else
        match Rp_backend.Native.find_cc () with
        | Some cc -> Some cc
        | None ->
          Fmt.epr
            "error: --native needs a working C compiler (probed `cc \
             --version`)@.";
          exit 2
    in
    let inject = Option.map (fun c -> (c, seed)) inject in
    let resil = Rp_support.Resilience.create () in
    (* Trials are independent: each generates its program from (seed,
       trial) and checks it against the oracle, so a journal record holds
       only the outcome and replay is exact.  All printing and
       reproducer-saving happens below, in trial order, so stdout is
       byte-identical at every --jobs level and across resumes. *)
    let outcomes =
      Rp_cli.run_campaign campaign
        ~id:
          [
            "gen-fuzz"; string_of_int seed; replay_flags mode inject;
            string_of_int fuel; string_of_bool native;
          ]
        ~resilience:resil ~name:string_of_int
        ~encode:(fun o -> Some (D.outcome_json o))
        ~decode:D.outcome_of_json
        (fun ~should_stop trial ->
          let src = Rp_fuzz.Gen.program_of_seed ~seed ~trial in
          D.check ~mode ~fuel ~should_stop ?inject ?native:native_cc src)
        (List.init trials Fun.id)
    in
    let agreed = ref 0 and inconclusive = ref 0 and rejected = ref 0 in
    let diverged = ref [] in
    List.iteri
      (fun trial -> function
        | Error f ->
          (* quarantined by the supervisor: wall-clock dependent, so it
             lives on stderr and counts as inconclusive *)
          incr inconclusive;
          Fmt.epr "trial %d (seed %d): quarantined: %a@." trial seed
            Rp_support.Pool.pp_job_failure f
        | Ok (D.Agree _) -> incr agreed
        | Ok (D.Inconclusive m) ->
          incr inconclusive;
          Fmt.epr "trial %d (seed %d): inconclusive: %s@." trial seed m
        | Ok (D.Rejected m) ->
          (* the generator only emits valid programs; a rejection is a
             generator bug and fails the campaign *)
          incr rejected;
          Fmt.epr "trial %d (seed %d): generator emitted a rejected program: \
                   %s@."
            trial seed m
        | Ok (D.Diverged fs) ->
          let src = Rp_fuzz.Gen.program_of_seed ~seed ~trial in
          let path =
            Filename.concat out_dir
              (Printf.sprintf "fuzz-s%d-t%d.c" seed trial)
          in
          write_file path src;
          diverged := (path, src, fs) :: !diverged;
          Fmt.pr "trial %d (seed %d): %a@.  saved to %s@." trial seed
            D.pp_outcome (D.Diverged fs) path;
          List.iter
            (fun (f : D.failure) ->
              Fmt.pr "  replay: rpcc reduce %s --config %s --class %s%s \
                      --seed %d@."
                path f.D.config (D.class_name f.D.cls)
                (replay_flags mode inject) seed)
            fs)
      outcomes;
    if Rp_support.Resilience.any resil then
      Fmt.epr "; resilience: %a@." Rp_support.Resilience.pp resil;
    Fmt.pr
      "gen-fuzz: seed=%d trials=%d agreed=%d diverged=%d inconclusive=%d \
       rejected=%d@."
      seed trials !agreed
      (List.length !diverged)
      !inconclusive !rejected;
    if do_reduce then
      List.iter
        (fun (path, src, fs) ->
          let target = List.hd fs in
          Fmt.pr "reducing %s for %a@." path D.pp_failure target;
          ignore
            (reduce_failure ~mode ~fuel ~inject ~budget ~path ~out:None
               target src))
        (List.rev !diverged);
    if !diverged <> [] || !rejected > 0 then exit 1
  in
  let reduce_t =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:"Automatically shrink every divergence to a FILE.min.c.")
  in
  let out_dir_t =
    Arg.(
      value & opt string "."
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Directory for saved reproducers (created if missing).")
  in
  let native_t =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Add an interpreter-vs-native comparison cell to every trial: \
             the default-configuration program also runs through the \
             compiled-C backend, and any difference in output, checksum, \
             counts, or trap message is reported as a divergence in the \
             $(i,native) configuration.")
  in
  Cmd.v
    (Cmd.info "gen-fuzz" ~exits
       ~doc:
         "Generative differential testing: generate random, safe, \
          terminating Mini-C programs biased toward promotion-relevant \
          shapes, compile each under the six grid configurations plus \
          an O0 reference (plus, with $(b,--native), an \
          interpreter-vs-native cell), and flag any divergence in \
          output, checksum, traps, fuel, or pipeline health.  Failing \
          programs are saved with their generator seed for exact \
          replay.  Exits 1 on any divergence.")
    Term.(
      const gen_fuzz $ seed_t
      $ trials_t ~doc:"Number of generated programs to test."
      $ mode_t $ inject_t $ oracle_fuel_t $ reduce_t $ budget_t $ out_dir_t
      $ Rp_cli.campaign_t $ native_t)

let reduce_cmd =
  let reduce file config_name cls_name mode inject iseed fuel budget out =
    handle_errors @@ fun () ->
    let module D = Rp_fuzz.Difforacle in
    let src = read_file file in
    let inject = Option.map (fun c -> (c, iseed)) inject in
    let cls =
      Option.map
        (fun n ->
          match D.class_of_string n with
          | Some c -> c
          | None -> Fmt.failwith "unknown failure class '%s'" n)
        cls_name
    in
    match D.check ~mode ~fuel ?inject src with
    | D.Agree _ ->
      Fmt.pr "no divergence: nothing to reduce@."
    | D.Rejected m ->
      Fmt.epr "error: the oracle rejected %s: %s@." file m;
      exit 2
    | D.Inconclusive m ->
      Fmt.epr "inconclusive: %s@." m;
      exit 3
    | D.Diverged fs -> (
      let matches (f : D.failure) =
        (match config_name with Some c -> f.D.config = c | None -> true)
        && match cls with Some k -> f.D.cls = k | None -> true
      in
      match List.find_opt matches fs with
      | None ->
        Fmt.epr "no failure matches the requested signature; observed:@.";
        List.iter (fun f -> Fmt.epr "  %a@." D.pp_failure f) fs;
        exit 2
      | Some target ->
        Fmt.pr "reducing for %a@." D.pp_failure target;
        let r =
          reduce_failure ~mode ~fuel ~inject ~budget ~path:file ~out target
            src
        in
        Fmt.pr "%s@." r.Rp_fuzz.Reduce.reduced)
  in
  let config_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"NAME"
          ~doc:
            "Reduce against the failure observed under this configuration \
             (modref/without, modref/with, modref/ptr, pointer/without, \
             pointer/with, pointer/ptr); default: the first reported \
             failure.")
  in
  let class_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "class" ] ~docv:"KIND"
          ~doc:
            "Restrict to this failure class (crash, degraded, counts, \
             output, checksum, trap, fuel).")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the reduced program (default FILE.min.c).")
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE" ~doc:"The failing Mini-C program.")
  in
  Cmd.v
    (Cmd.info "reduce" ~exits
       ~doc:
         "Delta-debug a program that fails the cross-configuration oracle \
          down to a minimal reproducer: structured deletion, loop \
          unwrapping, ddmin chunk removal, and expression simplification, \
          re-checking the oracle after every step under a wall-clock \
          budget (timeouts are quarantined, not trusted).")
    Term.(
      const reduce $ file_arg $ config_t $ class_t $ mode_t $ inject_t
      $ seed_t $ oracle_fuel_t $ budget_t $ out_t)

(* ------------------------------------------------------------------ *)
(* The compile/run daemon and its client                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let serve socket state_dir jobs queue_bound job_timeout retries =
    handle_errors @@ fun () ->
    let jobs = Rp_cli.jobs jobs and retries = Rp_cli.retries retries in
    let queue_bound = Rp_cli.positive ~flag:"--queue-bound" queue_bound in
    let job_timeout =
      if job_timeout = 0. then None
      else if job_timeout > 0. then Some job_timeout
      else Rp_cli.usage "--job-timeout must be >= 0 (0 = no deadline)"
    in
    Rp_serve.Daemon.serve
      { Rp_serve.Daemon.socket; state_dir; jobs; queue_bound; job_timeout;
        retries }
  in
  let socket_t =
    Arg.(
      value
      & opt string Rp_serve.Daemon.default_config.Rp_serve.Daemon.socket
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket to listen on (stale files are replaced).")
  in
  let state_dir_t =
    Arg.(
      value
      & opt string Rp_serve.Daemon.default_config.Rp_serve.Daemon.state_dir
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durable state: the content-addressed cache ($(docv)/cas) and \
             the request journal ($(docv)/journal.jsonl).  Restarting on \
             the same directory resumes warm.")
  in
  let queue_bound_t =
    Arg.(
      value
      & opt int Rp_serve.Daemon.default_config.Rp_serve.Daemon.queue_bound
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Admit at most $(docv) jobs that are not yet answered, \
             counted across all connections; requests beyond that \
             receive 'overloaded' responses instead of queueing \
             unboundedly.")
  in
  let serve_timeout_t =
    Arg.(
      value
      & opt float
          (Option.value ~default:0.
             Rp_serve.Daemon.default_config.Rp_serve.Daemon.job_timeout)
      & info [ "job-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-job wall-clock deadline enforced by the supervised pool \
             (0 disables it).")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the crash-tolerant compile/run daemon: line-JSON batches \
          over a Unix-domain socket, served concurrently and dispatched \
          to one persistent supervised worker pool of --jobs domains, \
          backed by a content-addressed cache and a request journal.  \
          SIGKILL-safe (restarts warm on the same --state-dir); \
          SIGTERM/SIGINT drain gracefully.")
    Term.(
      const serve $ socket_t $ state_dir_t $ Rp_cli.jobs_t $ queue_bound_t
      $ serve_timeout_t $ Rp_cli.retries_t)

let client_cmd =
  let client socket timeout op file config_name native =
    handle_errors @@ fun () ->
    let timeout =
      if timeout = 0. then None
      else if timeout > 0. then Some timeout
      else Rp_cli.usage "--timeout must be >= 0 (0 = wait forever)"
    in
    if native && op <> "run" then
      Fmt.failwith "--native only applies to op 'run'";
    let base =
      [
        ("schema", Json.Str Rp_serve.Protocol.schema);
        ("id", Json.Int 1);
        ("client", Json.Str "cli");
        ("op", Json.Str op);
      ]
    in
    let req =
      match (op, file) with
      | "health", _ -> Json.Obj base
      | _, Some f ->
        Json.Obj
          (base
          @ [
              ("src", Json.Str (read_file f)); ("config", Json.Str config_name);
            ]
          @ if native then [ ("mode", Json.Str "native") ] else [])
      | _, None -> Fmt.failwith "op '%s' needs a FILE.c argument" op
    in
    let resps =
      match Rp_serve.Client.call ?timeout ~socket [ req ] with
      | resps -> resps
      | exception Unix.Unix_error (e, _, _) ->
        Fmt.failwith "cannot reach daemon at %s: %s" socket
          (Unix.error_message e)
      | exception Rp_serve.Client.Timeout m ->
        Fmt.epr "rpcc client: timeout: %s@." m;
        exit 3
    in
    List.iter
      (fun r -> print_endline (Json.to_string ~indent:false r))
      resps;
    match resps with
    | [ r ] -> (
      match Rp_serve.Protocol.response_status r with
      | "ok" -> ()
      | "error" -> (
        match Json.member "code" r with
        | Some (Json.Str "trap") -> exit 1
        | Some (Json.Str "resource") -> exit 3
        | _ -> exit 2)
      | "overloaded" -> exit 3
      | _ -> exit 2)
    | _ -> Fmt.failwith "expected exactly one response line"
  in
  let socket_t =
    Arg.(
      value
      & opt string Rp_serve.Daemon.default_config.Rp_serve.Daemon.socket
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's socket.")
  in
  let client_timeout_t =
    Arg.(
      value & opt float 0.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Overall deadline for the exchange, in seconds (must be >= \
             0); a daemon that accepts the connection but never answers \
             cannot wedge the client.  Expiry exits 3.  0 (the default) \
             waits forever.")
  in
  let op_t =
    Arg.(
      required
      & pos 0 (some (enum [ ("run", "run"); ("health", "health") ])) None
      & info [] ~docv:"OP" ~doc:"Request: run or health.")
  in
  let file_opt_t =
    Arg.(
      value & pos 1 (some file) None
      & info [] ~docv:"FILE.c" ~doc:"Source file (run).")
  in
  let config_name_t =
    Arg.(
      value & opt string "modref/with"
      & info [ "config" ] ~docv:"NAME"
          ~doc:
            "Grid configuration name (O0, modref/without, modref/with, \
             modref/ptr, pointer/without, pointer/with, pointer/ptr).")
  in
  let native_client_t =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Request native (compiled-C) execution for op run.  The \
             daemon answers through its degradation ladder — native, \
             then the interpreter — and reports the rung used in the \
             response's exec object; the result itself is \
             mode-independent.")
  in
  Cmd.v
    (Cmd.info "client" ~exits
       ~doc:
         "Send one request to a running rpcc serve daemon and print its \
          response line.  Exit code mirrors the response: 0 ok, 1 trap, \
          2 usage/internal error, 3 resource/overloaded/timeout.")
    Term.(
      const client $ socket_t $ client_timeout_t $ op_t $ file_opt_t
      $ config_name_t $ native_client_t)

let main =
  Cmd.group
    (Cmd.info "rpcc" ~version:"1.0.0" ~exits
       ~doc:
         "Register promotion in C programs (Cooper & Lu, PLDI 1997) — \
          reference reimplementation.")
    [ run_cmd; dump_cmd; run_il_cmd; table_cmd; fuzz_cmd; gen_fuzz_cmd;
      reduce_cmd; serve_cmd; client_cmd ]

let () = exit (Cmd.eval main)
