(** The traced run: the same cells and requests as the timed workloads,
    driven in-process through the layers' public functions with a span
    around each call.  Per-pass times inside [Pipeline.optimize] come from
    the [timings] it already returns; nothing inside the program is
    instrumented.  Every per-layer metric is reported on every workload,
    as 0 where the workload does not reach that layer. *)

module Json = Rp_support.Json
module Config = Rp_driver.Config
module Pipeline = Rp_driver.Pipeline
module Native = Rp_backend.Native
module Interp = Rp_exec.Interp

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable front_instrs : int;
  mutable final_instrs : int;
  mutable promoted : int;
  mutable ptr_promoted : int;
  mutable spilled : int;
  mutable coalesced : int;
  mutable analysis_iters : int;
  mutable opt_degraded : int;
  mutable analysis_ms : float;
  mutable promotion_ms : float;
  mutable opt_ms : float;
  mutable regalloc_ms : float;
  mutable ops : int;
  mutable loads : int;
  mutable stores : int;
  mutable c_bytes : int;
  mutable compile_calls : int;
  mutable bin_hits : int;
  mutable cc_calls : int;
  mutable cc_ms : float;
  mutable hit_ms : float;
  mutable main_ms : float;
  mutable spawn_ms : float;
  mutable native_degraded : int;
}

let acc () =
  {
    attempted = 0; failed = 0; front_instrs = 0; final_instrs = 0;
    promoted = 0; ptr_promoted = 0; spilled = 0; coalesced = 0;
    analysis_iters = 0; opt_degraded = 0; analysis_ms = 0.;
    promotion_ms = 0.; opt_ms = 0.; regalloc_ms = 0.; ops = 0; loads = 0;
    stores = 0; c_bytes = 0; compile_calls = 0; bin_hits = 0; cc_calls = 0; cc_ms = 0.;
    hit_ms = 0.; main_ms = 0.; spawn_ms = 0.; native_degraded = 0;
  }

let add_compile a ~front ~final (st : Pipeline.stage_stats) =
  a.front_instrs <- a.front_instrs + front;
  a.final_instrs <- a.final_instrs + final;
  a.promoted <- a.promoted + st.promoted;
  a.ptr_promoted <- a.ptr_promoted + st.ptr_promoted;
  a.spilled <- a.spilled + st.spilled;
  a.coalesced <- a.coalesced + st.coalesced;
  a.analysis_iters <- a.analysis_iters + st.analysis_iters;
  a.opt_degraded <- a.opt_degraded + List.length st.degraded;
  List.iter
    (fun (pass, s) ->
      let ms = s *. 1e3 in
      match pass with
      | "regalloc" -> a.regalloc_ms <- a.regalloc_ms +. ms
      | "analysis" -> a.analysis_ms <- a.analysis_ms +. ms
      | "promotion" | "ptr_promotion" -> a.promotion_ms <- a.promotion_ms +. ms
      | "validate" -> ()
      | _ -> a.opt_ms <- a.opt_ms +. ms)
    st.timings

let add_result a (r : Interp.result) =
  a.ops <- a.ops + r.total.ops;
  a.loads <- a.loads + r.total.loads;
  a.stores <- a.stores + r.total.stores

let cells () =
  List.concat_map
    (fun (p : Rp_suite.Programs.program) ->
      List.map (fun (cname, cfg) -> (p, cname, cfg)) Config.paper_grid)
    Rp_suite.Programs.all

let owner (p : Rp_suite.Programs.program) cname = p.name ^ "/" ^ cname

(** Front end and optimizer of one cell, each under its own span. *)
let compile r a (p : Rp_suite.Programs.program) cname cfg =
  let owner = owner p cname in
  let prog =
    Span.record r ~name:"Irgen.compile_source" ~owner (fun () ->
        Rp_irgen.Irgen.compile_source p.source)
  in
  let front = Rp_ir.Program.size prog in
  let st =
    Span.record r ~name:"Pipeline.optimize" ~owner (fun () ->
        Pipeline.optimize ~config:cfg prog)
  in
  add_compile a ~front ~final:(Rp_ir.Program.size prog) st;
  prog

let check (ctx : Ctx.t) a (p : Rp_suite.Programs.program) (r : Interp.result) =
  if List.assoc_opt p.name ctx.refs = Some r.checksum then add_result a r
  else a.failed <- a.failed + 1

let interp_cell ctx r a (p, cname, cfg) =
  a.attempted <- a.attempted + 1;
  Span.record r ~name:"cell" ~owner:(owner p cname) (fun () ->
      match
        let prog = compile r a p cname cfg in
        Span.record r ~name:"Interp.run" ~owner:(owner p cname) (fun () ->
            Interp.run prog)
      with
      | res -> check ctx a p res
      | exception (Interp.Error _ | Interp.Resource_limit _ | Stack_overflow) ->
        a.failed <- a.failed + 1)

(** One native cell: emit, compile (a binary-store miss runs cc), and
    execute. *)
let native_cell ctx r a ~cc ~cas (p, cname, cfg) =
  a.attempted <- a.attempted + 1;
  let owner = owner p cname in
  Span.record r ~name:"cell" ~owner (fun () ->
      match
        let prog = compile r a p cname cfg in
        let key = Pipeline.cache_key ~config:cfg p.source in
        let csrc =
          Span.record r ~name:"Cgen.emit" ~owner (fun () ->
              Rp_backend.Cgen.emit prog)
        in
        a.c_bytes <- a.c_bytes + String.length csrc;
        let bin, hit =
          Span.record r ~name:"Native.compile" ~owner (fun () ->
              Native.compile ~cache:cas ~key ~cc prog)
        in
        let ms = Ctx.ms_of_ns (Span.duration (List.hd r.Span.spans)) in
        a.compile_calls <- a.compile_calls + 1;
        if hit then begin
          a.bin_hits <- a.bin_hits + 1;
          a.hit_ms <- a.hit_ms +. ms
        end
        else begin
          a.cc_calls <- a.cc_calls + 1;
          a.cc_ms <- a.cc_ms +. ms
        end;
        Fun.protect
          ~finally:(fun () -> try Sys.remove bin with Sys_error _ -> ())
          (fun () ->
            Span.record r ~name:"Native.exec_bin" ~owner (fun () ->
                Native.exec_bin bin))
      with
      | res -> check ctx a p res
      | exception Native.Error _ ->
        a.native_degraded <- a.native_degraded + 1;
        a.failed <- a.failed + 1
      | exception (Interp.Error _ | Interp.Resource_limit _ | Stack_overflow) ->
        a.failed <- a.failed + 1)

type serve_stats = {
  client_cold : float array;
  client_warm : float array;
  service_cold : float array;
  service_warm : float array;
  all_latency : float array;  (** the untraced two-connection session *)
  health : Json.t;
  journal_records : int;  (** records the traced daemon journaled *)
}

let no_serve =
  {
    client_cold = [||]; client_warm = [||]; service_cold = [||];
    service_warm = [||]; all_latency = [||]; health = Json.Null;
    journal_records = 0;
  }

let serve (ctx : Ctx.t) r a =
  (* the same prefix of the seeded sequence as a timed session *)
  let serve_requests = Serve_load.requests in
  let dir = Ctx.subdir ctx "serve" in
  let traffic = Serve_load.traffic ~seed:ctx.seed in
  (* the untraced reference: the timed workload's two-connection loop
     over the same requests *)
  let d = Serve_load.start_daemon ctx ~dir:(Ctx.subdir ctx "serve-e2e") in
  let samples, e2e_ms =
    Serve_load.session ~socket:d.socket ~traffic ~requests:serve_requests
  in
  ignore (Serve_load.stop_daemon d);
  List.iter
    (fun (s : Serve_load.sample) ->
      a.attempted <- a.attempted + 1;
      if not s.ok then a.failed <- a.failed + 1)
    samples;
  let seq =
    let gen = Traffic.make ~seed:ctx.seed in
    Array.init serve_requests (fun id ->
        let it = Traffic.next gen in
        (id, it, Traffic.request_line ~id ~src:traffic.srcs.(it.prog)
                   ~config:it.config))
  in
  (* traced client pass: one request at a time through Client.call *)
  let d = Serve_load.start_daemon ctx ~dir in
  let seen = Hashtbl.create 1024 in
  let cold = ref [] and warm = ref [] in
  let t0 = Span.now_ns () in
  Array.iter
    (fun (id, (it : Traffic.item), line) ->
      a.attempted <- a.attempted + 1;
      let req = Json.parse line in
      let resps =
        Span.record r ~name:"Client.call" ~owner:(string_of_int id) (fun () ->
            Rp_serve.Client.call ~timeout:120. ~socket:d.socket [ req ])
      in
      let ms = Ctx.ms_of_ns (Span.duration (List.hd r.Span.spans)) in
      if Hashtbl.mem seen it then warm := ms :: !warm
      else cold := ms :: !cold;
      Hashtbl.replace seen it ();
      let output, checksum = traffic.answers.(it.prog) in
      match resps with
      | [ resp ] when Check.answer_ok ~output ~checksum resp -> ()
      | _ -> a.failed <- a.failed + 1)
    seq;
  let trace_ms = Ctx.ms_of_ns (Span.now_ns () - t0) in
  let health =
    match
      Rp_serve.Client.call ~timeout:120. ~socket:d.socket
        [
          Json.Obj
            [
              ("schema", Json.Str Rp_serve.Protocol.schema);
              ("client", Json.Str "perfbench");
              ("op", Json.Str "health");
            ];
        ]
    with
    | [ resp ] -> Option.value (Json.member "health" resp) ~default:Json.Null
    | _ -> Json.Null
  in
  ignore (Serve_load.stop_daemon d);
  let journal_records =
    let ic = open_in (Filename.concat dir "state/journal.jsonl") in
    let rec count n =
      match input_line ic with _ -> count (n + 1) | exception End_of_file -> n
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> count 0)
  in
  (* service times: the same sequence replayed in-process against a
     private store *)
  let cas = Rp_support.Cas.open_ (Filename.concat dir "replay-cas") in
  let svc_cold = ref [] and svc_warm = ref [] in
  Array.iter
    (fun (id, _, line) ->
      let owner = "replay-" ^ string_of_int id in
      match
        Span.record r ~name:"Protocol.parse_request" ~owner (fun () ->
            Rp_serve.Protocol.parse_request (Json.parse line))
      with
      | Ok { op = Rp_serve.Protocol.Run { src; config; _ }; _ } ->
        let config = Option.get (Rp_serve.Protocol.config_of_name config) in
        let c =
          Span.record r ~name:"Pipeline.compile_and_run_cached" ~owner
            (fun () -> Pipeline.compile_and_run_cached ~config ~cas src)
        in
        let ms = Ctx.ms_of_ns (Span.duration (List.hd r.Span.spans)) in
        if c.cache_hit then svc_warm := ms :: !svc_warm
        else svc_cold := ms :: !svc_cold;
        a.ops <- a.ops + c.ops;
        a.loads <- a.loads + c.loads;
        a.stores <- a.stores + c.stores
      | _ -> failwith "replayed request does not parse as a run")
    seq;
  let arr l = Array.of_list (List.rev l) in
  ( {
      client_cold = arr !cold;
      client_warm = arr !warm;
      service_cold = arr !svc_cold;
      service_warm = arr !svc_warm;
      all_latency =
        Array.of_list (List.map (fun s -> s.Serve_load.latency_ms) samples);
      health;
      journal_records;
    },
    trace_ms,
    e2e_ms )

(** Run the traced workload.  Returns the per-layer metrics, the
    operations attempted and failed, and every span recorded.  Self
    times come from [r]'s spans; [grid-native]'s cold-pass spans are
    written out but feed only the cc metrics. *)
let run (ctx : Ctx.t) workload =
  let a = acc () in
  let r = Span.recorder () in
  let cold_spans = ref [] in
  let serve_st, trace_ms, e2e_ms =
    match workload with
    | `Grid_interp ->
      let dir = Ctx.subdir ctx "grid" in
      let tmp = Ctx.subdir ctx "tmp" in
      let e2e = Grid.campaign ctx ~dir ~tmp ~jobs:1 ~native:false in
      a.attempted <- a.attempted + e2e.tally.attempted;
      a.failed <- a.failed + e2e.tally.failed;
      let t0 = Span.now_ns () in
      List.iter (interp_cell ctx r a) (cells ());
      (no_serve, Ctx.ms_of_ns (Span.now_ns () - t0), e2e.wall_ms)
    | `Grid_native ->
      let dir = Ctx.subdir ctx "grid" in
      let tmp = Ctx.abs (Ctx.subdir ctx "tmp") in
      (* cc and Filename.temp_file both honour the private TMPDIR;
         set before the pool's domains are spawned *)
      Unix.putenv "TMPDIR" tmp;
      Filename.set_temp_dir_name tmp;
      let cas = Rp_support.Cas.open_ (Native.default_cache_dir ()) in
      let cc =
        match Native.find_cc ~cache:cas ~flags:[ "-O1" ] () with
        | Some cc -> cc
        | None -> failwith "grid-native needs a C compiler (cc)"
      in
      (* cold pass on the empty store, two domains as the timed
         workload's cold campaign; each job keeps its own spans *)
      let cold =
        Rp_support.Pool.run ~jobs:2
          (fun cell ->
            let r = Span.recorder () and a = acc () in
            native_cell ctx r a ~cc ~cas cell;
            (r.spans, a))
          (Array.of_list (cells ()))
      in
      (* the cold pass contributes only what happens on an empty
         store: cc calls and their time *)
      Array.iter
        (function
          | Ok (spans, (x : acc)) ->
            cold_spans := spans @ !cold_spans;
            a.attempted <- a.attempted + x.attempted;
            a.failed <- a.failed + x.failed;
            a.cc_calls <- a.cc_calls + x.cc_calls;
            a.cc_ms <- a.cc_ms +. x.cc_ms;
            a.native_degraded <- a.native_degraded + x.native_degraded
          | Error _ ->
            a.attempted <- a.attempted + 1;
            a.failed <- a.failed + 1)
        cold;
      (* warm pass on the filled store: the per-layer compile, emit,
         interp-free execution and dynamic counts come from here *)
      let t0 = Span.now_ns () in
      List.iter (native_cell ctx r a ~cc ~cas) (cells ());
      let trace_ms = Ctx.ms_of_ns (Span.now_ns () - t0) in
      (* the binaries' self-timed [main] and the spawn around it, from a
         second execution of each cell through [Native.run_timed] after
         the warm pass (Native.exec_bin does not return it), so it does
         not weigh on trace.wall_ms *)
      List.iter
        (fun ((p : Rp_suite.Programs.program), cname, cfg) ->
          let owner = owner p cname in
          let prog = Rp_irgen.Irgen.compile_source p.source in
          ignore (Pipeline.optimize ~config:cfg prog);
          let key = Pipeline.cache_key ~config:cfg p.source in
          a.attempted <- a.attempted + 1;
          match
            Span.record r ~name:"Native.run_timed" ~owner (fun () ->
                Native.run_timed ~cache:cas ~key ~cc prog)
          with
          | t ->
            let ms = Ctx.ms_of_ns (Span.duration (List.hd r.Span.spans)) in
            if List.assoc_opt p.name ctx.refs <> Some t.result.checksum then
              a.failed <- a.failed + 1;
            a.main_ms <- a.main_ms +. t.exec_ms;
            a.spawn_ms <- a.spawn_ms +. (ms -. t.cc_ms -. t.exec_ms)
          | exception (Native.Error _ | Interp.Error _ | Interp.Resource_limit _) ->
            a.failed <- a.failed + 1)
        (cells ());
      (* the untraced reference: the timed workload's warm campaign, on
         the store the traced passes filled *)
      let e2e = Grid.campaign ctx ~dir ~tmp ~jobs:1 ~native:true in
      a.attempted <- a.attempted + e2e.tally.attempted;
      a.failed <- a.failed + e2e.tally.failed;
      (no_serve, trace_ms, e2e.wall_ms)
    | `Serve -> serve ctx r a
  in
  let selfs = Span.self_times r.spans in
  let ms name = Span.self_ms selfs name in
  let interp_ms = ms "Interp.run" in
  let exec_ms = ms "Native.exec_bin" in
  let med = Serve_load.median_or_zero in
  let health_int keys =
    match
      List.fold_left
        (fun h k -> Option.bind h (Json.member k))
        (Some serve_st.health) keys
    with
    | Some (Json.Int n) -> float_of_int n
    | _ -> 0.
  in
  let cas_hits = health_int [ "cache"; "hits" ] and cas_misses = health_int [ "cache"; "misses" ] in
  let ratio n d = if d = 0. then 0. else n /. d in
  let f = float_of_int in
  let metrics =
    [
      ("irgen.ms", ms "Irgen.compile_source", "ms");
      ("ir.front_instrs", f a.front_instrs, "count");
      ("optimize.ms", ms "Pipeline.optimize", "ms");
      ("analysis.ms", a.analysis_ms, "ms");
      ("promotion.ms", a.promotion_ms, "ms");
      ("opt.ms", a.opt_ms, "ms");
      ("regalloc.ms", a.regalloc_ms, "ms");
      ("ir.final_instrs", f a.final_instrs, "count");
      ("promotion.promoted", f a.promoted, "count");
      ("ptr_promotion.promoted", f a.ptr_promoted, "count");
      ("regalloc.spilled", f a.spilled, "count");
      ("regalloc.coalesced", f a.coalesced, "count");
      ("analysis.iters", f a.analysis_iters, "count");
      ("optimize.degraded", f a.opt_degraded, "count");
      ("interp.ms", interp_ms, "ms");
      ( "interp.ns_per_op",
        (if interp_ms = 0. then 0. else ratio (interp_ms *. 1e6) (f a.ops)),
        "ns" );
      ("dyn_ops", f a.ops, "count");
      ("dyn_loads", f a.loads, "count");
      ("dyn_stores", f a.stores, "count");
      ("cgen.ms", ms "Cgen.emit", "ms");
      ("cgen.c_bytes", f a.c_bytes, "bytes");
      ("cc.calls", f a.cc_calls, "count");
      ("cc.ms", a.cc_ms, "ms");
      ("native.compile_calls", f a.compile_calls, "count");
      ( "bincache.hit_ratio",
        ratio (f a.bin_hits) (f a.compile_calls),
        "ratio" );
      ("native.hit_ms", a.hit_ms, "ms");
      ("native.exec_ms", exec_ms, "ms");
      ("native.main_ms", a.main_ms, "ms");
      ("native.spawn_ms", a.spawn_ms, "ms");
      ("native.degraded", f a.native_degraded, "count");
      ("protocol.ms", ms "Protocol.parse_request", "ms");
      ("serve.cold_p50_ms", med serve_st.client_cold, "ms");
      ("serve.warm_p50_ms", med serve_st.client_warm, "ms");
      ("serve.service_cold_ms", med serve_st.service_cold, "ms");
      ("serve.service_warm_ms", med serve_st.service_warm, "ms");
      ( "serve.overhead_ms",
        med serve_st.client_warm -. med serve_st.service_warm,
        "ms" );
      ("serve.p50_ms", med serve_st.all_latency, "ms");
      ( "serve.p99_ms",
        (if Array.length serve_st.all_latency = 0 then 0.
         else Stats.percentile serve_st.all_latency 99.),
        "ms" );
      ("cas.hits", cas_hits, "count");
      ("cas.misses", cas_misses, "count");
      ("cas.hit_ratio", ratio cas_hits (cas_hits +. cas_misses), "ratio");
      ("cas.puts", health_int [ "cache"; "puts" ], "count");
      ("cas.quarantined", health_int [ "cache"; "quarantined" ], "count");
      ("journal.records", f serve_st.journal_records, "count");
      ("daemon.errors", health_int [ "errors" ], "count");
      ("daemon.overloaded", health_int [ "overloaded" ], "count");
      ("daemon.rejected", health_int [ "rejected" ], "count");
      ("trace.spans", f (List.length r.spans + List.length !cold_spans), "count");
      ("trace.wall_ms", trace_ms, "ms");
      ("e2e.wall_ms", e2e_ms, "ms");
    ]
  in
  (metrics, a.attempted, a.failed, !cold_spans @ r.spans)
