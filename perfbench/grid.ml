(** The grid workloads, timed from outside: [bench/main.exe --json] run
    as a child process in a private cwd with a private [TMPDIR], every
    cell checked against its program's [O0] checksum. *)

module Json = Rp_support.Json

type campaign = {
  wall_ms : float;  (** as measured *)
  ref_ms : float;  (** rescaled to the reference host's speed *)
  rss_mb : float;
  tally : Check.tally;
}

(** One grid command, between two host calibrations. *)
let campaign (ctx : Ctx.t) ~dir ~tmp ~jobs ~native =
  let counts = Filename.concat dir "BENCH_counts.json" in
  (try Sys.remove counts with Sys_error _ -> ());
  let argv =
    Array.of_list
      ([ ctx.bench; "--json"; "--jobs"; string_of_int jobs ]
      @ if native then [ "--native" ] else [])
  in
  let f, speed =
    Host.around (fun () ->
        Proc.run ~cwd:dir ~env:(Proc.env_with_tmpdir (Ctx.abs tmp))
          ~log:(Filename.concat dir "grid.log") argv)
  in
  let tally =
    if not (Proc.ok f) then Check.all_failed ~refs:ctx.refs
    else
      match Json.of_file counts with
      | doc -> Check.grid ~refs:ctx.refs doc
      | exception (Sys_error _ | Json.Parse_error _) ->
        Check.all_failed ~refs:ctx.refs
  in
  let wall_ms = Ctx.ms_of_ns f.wall_ns in
  {
    wall_ms;
    ref_ms = wall_ms *. speed;
    rss_mb = float_of_int f.maxrss_kb /. 1024.;
    tally;
  }

(** How many warm campaigns a run of [seconds] makes: a fixed number for
    a given [--seconds], so a faster host or change does not get more
    samples.  The nominal lengths, 4 s (interp) and 2 s (native) a
    campaign, are about twice what a campaign takes on the reference host
    at full speed, so that a run, with its cold campaign, stays within the
    benchmark's time budget when the host is slow. *)
let warm_campaigns ~seconds ~native =
  let nominal_s = if native then 2.0 else 4.0 in
  max 2 (int_of_float (Float.ceil (seconds /. nominal_s)))

(** One cold campaign, then a fixed number of warm ones at [--jobs 1].
    [grid-native] runs its cold campaign on an empty binary store at
    [--jobs 2] (its workers mostly wait on cc); the repeats only read the
    store.  [grid-interp] runs every campaign at [--jobs 1]; the
    interpreter keeps no cache, so every campaign is cold and its
    [cold_ms] is the median of them all, not one sample. *)
let session (ctx : Ctx.t) ~dir ~native =
  let tmp = Filename.concat dir "tmp" in
  let t0 = Span.now_ns () in
  let cold = campaign ctx ~dir ~tmp ~jobs:(if native then 2 else 1) ~native in
  let warm =
    List.init (warm_campaigns ~seconds:ctx.seconds ~native) (fun _ ->
        campaign ctx ~dir ~tmp ~jobs:1 ~native)
  in
  let all = cold :: warm in
  let median f cs = Stats.median (Array.of_list (List.map f cs)) in
  let warm_ms = median (fun c -> c.ref_ms) warm in
  let sum f = List.fold_left (fun n c -> n + f c.tally) 0 all in
  (* counts are exact: every campaign that passed must agree *)
  let passed = List.filter (fun c -> c.tally.failed = 0) all in
  let agree =
    match passed with
    | [] -> true
    | c :: rest ->
      List.for_all
        (fun d ->
          (d.tally.ops, d.tally.loads, d.tally.stores)
          = (c.tally.ops, c.tally.loads, c.tally.stores))
        rest
  in
  let dyn =
    match passed with
    | c :: _ ->
      [
        ("dyn_ops", Json.Int c.tally.ops);
        ("dyn_loads", Json.Int c.tally.loads);
        ("dyn_stores", Json.Int c.tally.stores);
      ]
    | [] -> []
  in
  let walls f cs = Json.List (List.map (fun c -> Json.Float (f c)) cs) in
  {
    Ctx.metrics =
      [
        ("cold_ms", (if native then cold.ref_ms else median (fun c -> c.ref_ms) all), "ms");
        ("warm_ms", warm_ms, "ms");
        ( "ops_per_s",
          median (fun c -> float_of_int (c.tally.attempted - c.tally.failed)) warm
          /. (warm_ms /. 1e3),
          "1/s" );
        ("peak_rss_mb", median (fun c -> c.rss_mb) warm, "MB");
      ];
    attempted = sum (fun t -> t.attempted);
    failed = sum (fun t -> t.failed);
    sound = agree;
    notes =
      dyn
      @ [
          ("campaign_ms", walls (fun c -> c.wall_ms) all);
          ("campaign_ref_ms", walls (fun c -> c.ref_ms) all);
          ("cold_rss_mb", Json.Float cold.rss_mb);
          ("session_s", Json.Float (float_of_int (Span.now_ns () - t0) /. 1e9));
        ];
  }
