(** The repository benchmark.

    {v perfbench --workload W --seed N --seconds S --trace 0|1 v}

    Workloads: [grid-interp], [grid-native], [serve] (see README.md and
    metric_map.json).  With [--trace 0] the workload runs through the
    commands users run, as child processes timed from outside, and the
    end-to-end metrics are printed; with [--trace 1] the same cells or
    requests are driven in-process with a span around each layer call,
    and the per-layer metrics are printed.  The last line of stdout is
    one JSON object: [correct], [attempted], [failed], [metrics].

    Run from the checkout root after building (perfbench/run.sh does
    both).  Every run works in a private scratch directory under
    perfbench/_run/ that is deleted when it ends; spans are written to
    perfbench/_out/. *)

module Json = Rp_support.Json

let usage () =
  prerr_endline
    "usage: perfbench --workload grid-interp|grid-native|serve --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let workload =
    match !workload with
    | Some "grid-interp" -> `Grid_interp
    | Some "grid-native" -> `Grid_native
    | Some "serve" -> `Serve
    | _ -> usage ()
  in
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some ((0 | 1) as trace) when seconds > 0. ->
    (workload, seed, seconds, trace = 1)
  | _ -> usage ()

let workload_name = function
  | `Grid_interp -> "grid-interp"
  | `Grid_native -> "grid-native"
  | `Serve -> "serve"

let built path =
  let p = Ctx.abs (Filename.concat "_build/default" path) in
  if not (Sys.file_exists p) then
    failwith (p ^ " is missing: build first (perfbench/run.sh does)");
  p

let refs_path = "perfbench/o0_checksums.txt"

(** One set-up: private scratch (a cwd with its [TMPDIR] inside), host
    probe, committed references, and for [serve] the daemon (start to
    ready) plus the seeded traffic and its reference answers.  Timed on
    the monotonic clock and rescaled to the reference host's speed. *)
let setup ctx workload i =
  let (s, dir, probe, refs, served), speed =
    Host.around ~passes:5 (fun () ->
        let t0 = Span.now_ns () in
        let dir = Ctx.subdir ctx (Printf.sprintf "setup%d" i) in
        Unix.mkdir (Filename.concat dir "tmp") 0o755;
        let probe = Host.probe () in
        let refs = Check.load_refs refs_path in
        let served =
          match workload with
          | `Serve ->
            let d = Serve_load.start_daemon ctx ~dir in
            Some (d, Serve_load.traffic ~seed:ctx.Ctx.seed)
          | `Grid_interp | `Grid_native -> None
        in
        (Ctx.ms_of_ns (Span.now_ns () - t0) /. 1e3, dir, probe, refs, served))
  in
  (s *. speed, dir, probe, refs, served)

let setups = function `Serve -> 7 | `Grid_interp | `Grid_native -> 15

(** The timed sessions, each between two host calibrations: the first
    [Serve_load.requests] of the seeded sequence against its own fresh
    daemon, which is then stopped for its peak RSS.  Latencies are
    pooled over the sessions. *)
let serve_sessions served =
  let runs =
    List.map
      (fun ((d : Serve_load.daemon), traffic) ->
        let (samples, session_ms, rss), speed =
          Host.around (fun () ->
              let samples, session_ms =
                Serve_load.session ~socket:d.socket ~traffic
                  ~requests:Serve_load.requests
              in
              (samples, session_ms, Serve_load.stop_daemon d))
        in
        (samples, session_ms, speed, rss))
      served
  in
  let samples = List.concat_map (fun (s, _, _, _) -> s) runs in
  let lat pred =
    Array.concat
      (List.map
         (fun (s, _, speed, _) ->
           Array.map (fun ms -> ms *. speed) (Serve_load.latencies pred s))
         runs)
  in
  let ok = List.length (List.filter (fun s -> s.Serve_load.ok) samples) in
  let n = List.length samples in
  let all = Stats.summarize (lat (fun _ -> true)) in
  let cold = lat (fun s -> s.first_touch) in
  let session_ms = List.map (fun (_, ms, _, _) -> ms) runs in
  let session_ref_ms = List.map (fun (_, ms, speed, _) -> ms *. speed) runs in
  let floats l = Json.List (List.map (fun x -> Json.Float x) l) in
  {
    Ctx.metrics =
      [
        ("cold_ms", Serve_load.median_or_zero cold, "ms");
        ("warm_ms", Serve_load.median_or_zero (lat (fun s -> not s.first_touch)), "ms");
        ( "ops_per_s",
          float_of_int ok /. (List.fold_left ( +. ) 0. session_ref_ms /. 1e3),
          "1/s" );
        ( "peak_rss_mb",
          Stats.median (Array.of_list (List.map (fun (_, _, _, rss) -> rss) runs)),
          "MB" );
      ];
    attempted = n;
    failed = n - ok;
    sound = true;
    notes =
      [
        ("requests", Json.Int n);
        ("first_touch", Json.Int (Array.length cold));
        ("p50_ms", Json.Float all.p50);
        ( "p99_ms",
          match all.p99 with Some v -> Json.Float v | None -> Json.Null );
        ("session_ms", floats session_ms);
        ("session_ref_ms", floats session_ref_ms);
        ( "daemon_ready_ms",
          floats (List.map (fun ((d : Serve_load.daemon), _) -> d.ready_ms) served) );
      ];
  }

let main () =
  let workload, seed, seconds, trace = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* SIGTERM and SIGINT unwind through the clean-up below, which stops
     any daemon still running and deletes the scratch *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Exit));
  Sys.catch_break true;
  let bench = built "bench/main.exe" and rpcc = built "bin/rpcc.exe" in
  let scratch = Printf.sprintf "perfbench/_run/%d" (Unix.getpid ()) in
  Proc.rm_rf scratch;
  Proc.mkdir_p scratch;
  let ctx = { Ctx.bench; rpcc; refs = []; seed; seconds; scratch } in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> ignore (Serve_load.stop_daemon d)) !Serve_load.live;
      Proc.rm_rf scratch;
      try Unix.rmdir "perfbench/_run" with Unix.Unix_error _ -> ())
    (fun () ->
      let steal0 = Host.steal () in
      let outcome, spans, setup_s, probe =
        if trace then begin
          let probe = Host.probe () in
          let ctx = { ctx with refs = Check.load_refs refs_path } in
          (* calibrated for the report's host context only: per-layer
             times are reported as measured *)
          let (metrics, attempted, failed, spans), _ =
            Host.around (fun () -> Traced.run ctx workload)
          in
          ({ Ctx.metrics; attempted; failed; sound = true; notes = [] }, spans, None, probe)
        end
        else begin
          (* serve keeps the daemons of its last set-ups, one a session *)
          let keep =
            match workload with
            | `Serve -> Serve_load.sessions ~seconds
            | `Grid_interp | `Grid_native -> 1
          in
          let n = max keep (setups workload) in
          let results =
            List.init n (fun i ->
                let (_, dir, _, _, served) as r = setup ctx workload i in
                if i < n - keep then begin
                  Option.iter
                    (fun (d, _) -> ignore (Serve_load.stop_daemon d))
                    served;
                  Proc.rm_rf dir
                end;
                r)
          in
          let setup_s =
            Stats.median (Array.of_list (List.map (fun (s, _, _, _, _) -> s) results))
          in
          let _, dir, probe, refs, _ = List.nth results (n - 1) in
          let ctx = { ctx with refs } in
          let outcome =
            match workload with
            | `Serve ->
              serve_sessions
                (List.filter_map (fun (_, _, _, _, served) -> served)
                   (List.filteri (fun i _ -> i >= n - keep) results))
            | `Grid_interp -> Grid.session ctx ~dir ~native:false
            | `Grid_native -> Grid.session ctx ~dir ~native:true
          in
          (outcome, [], Some setup_s, probe)
        end
      in
      let host =
        Host.json probe ~scratch ~steal_jiffies:(Host.steal () - steal0)
      in
      let metrics =
        (match setup_s with Some s -> [ ("setup_s", s, "s") ] | None -> [])
        @ outcome.metrics
      in
      let name = workload_name workload in
      Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" name seed
        seconds (if trace then 1 else 0);
      Printf.printf "host %s\n" (Json.to_string ~indent:false host);
      List.iter
        (fun (k, v, u) -> Printf.printf "  %-24s %14.4f %s\n" k v u)
        metrics;
      List.iter
        (fun (k, v) ->
          Printf.printf "  note %-19s %s\n" k (Json.to_string ~indent:false v))
        outcome.notes;
      Printf.printf "  attempted %d, failed %d\n" outcome.attempted outcome.failed;
      if spans <> [] then begin
        Proc.mkdir_p "perfbench/_out";
        let path =
          Printf.sprintf "perfbench/_out/spans-%s-seed%d.jsonl" name seed
        in
        Span.write path spans;
        Printf.printf "  spans written to %s\n" path
      end;
      let result =
        Json.Obj
          [
            ("correct", Json.Bool (outcome.failed = 0 && outcome.sound));
            ("attempted", Json.Int (max 1 outcome.attempted));
            ("failed", Json.Int outcome.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (k, v, u) ->
                     (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
                   metrics) );
          ]
      in
      print_endline (Json.to_string ~indent:false result))

let () =
  match main () with
  | () -> ()
  | exception e ->
    Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
    exit 1
