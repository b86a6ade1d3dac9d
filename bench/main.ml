(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (see DESIGN.md §4 for the experiment index).

    {v
      bench/main.exe                    every count table (Figures 4-7, §3.3,
                                        register pressure, ablations)
      bench/main.exe --json             write BENCH_counts.json and
                                        BENCH_timings.json
      bench/main.exe --json --native [--cc-flags "-O2"] [--plant-cc-failure]
                                        every cell through the compiled-C
                                        backend's degradation ladder
                                        (native → interp)
      bench/main.exe --json --via-daemon SOCK
                                        the grid through a running
                                        rpcc serve daemon (cached)
      bench/main.exe --help             every flag
    v}

    One driver serves every mode.  It hands a list of cells — one program
    compiled and run under one configuration — to one executor
    (in-process or daemon) and gets back one outcome per cell, in
    order.  One function builds the counts document from those outcomes,
    so the document is byte-identical across executors, [-j] values and
    execution modes by construction.  Table mode runs the cells its
    tables read on the in-process executor.

    Counts are exact and deterministic (the interpreter counts executed IL
    operations); wall-clock numbers are only for the compiler itself. *)

open Rp_driver
module I = Rp_exec.Interp
module P = Rp_suite.Programs
module Json = Rp_support.Json
module Clock = Rp_support.Clock
module Native = Rp_backend.Native

(* ------------------------------------------------------------------ *)
(* Cells and outcomes                                                  *)
(* ------------------------------------------------------------------ *)

(** One program compiled and run under one configuration.  [cname] names
    the cell in the counts document, the journal, daemon requests and
    quarantine reasons. *)
type cell = { prog : P.program; cname : string; cfg : Config.t }

(** [ptr_promoted] is the static §3.3 counter for the cell's compile: how
    many invariant-base groups pointer promotion rewrote (nonzero only in
    the [*/ptr] configs).  [per_func] is kept by table mode only, whose
    mlink table reads its hot function from it. *)
type counts = {
  ops : int;
  loads : int;
  stores : int;
  checksum : int;
  ptr_promoted : int;
  per_func : (string * I.counts) list;
}

(** What an executor returns for one cell. *)
type outcome = {
  answer : (counts, string) result;
      (** the counts, or why the cell was quarantined: a trap, a resource
          limit, a timeout, a daemon error *)
  rung : [ `Native | `Interp ] option;
      (** for a [--native] cell, the degradation-ladder rung that
          answered *)
  timing : timing option;  (** in-process cells computed by this run *)
  resumed : bool;  (** replayed from the [--journal] *)
}

(** The timings of one in-process cell. *)
and timing = {
  st : Pipeline.stage_stats;
  wall : float;  (** compile + run, seconds *)
  native : Native.timed option;  (** [--native]: the ladder's timings *)
}

let quarantined reason =
  { answer = Error reason; rung = None; timing = None; resumed = false }

(** [program:config]: a cell's name in the journal and in [--plant-hang]. *)
let cell_name c = c.prog.P.name ^ ":" ^ c.cname

(** The paper grid: every program under every {!Config.paper_grid}
    configuration, program-major. *)
let grid =
  List.concat_map
    (fun prog ->
      List.map (fun (cname, cfg) -> { prog; cname; cfg }) Config.paper_grid)
    P.all

let answer_json = function
  | Ok c ->
    Json.Obj
      [
        ("ops", Json.Int c.ops);
        ("loads", Json.Int c.loads);
        ("stores", Json.Int c.stores);
        ("checksum", Json.Int c.checksum);
        ("ptr_promoted", Json.Int c.ptr_promoted);
      ]
  | Error reason -> Json.Obj [ ("degraded", Json.Str reason) ]

let answer_of_json = function
  | Json.Obj
      [
        ("ops", Json.Int ops);
        ("loads", Json.Int loads);
        ("stores", Json.Int stores);
        ("checksum", Json.Int checksum);
        ("ptr_promoted", Json.Int ptr_promoted);
      ] ->
    Some (Ok { ops; loads; stores; checksum; ptr_promoted; per_func = [] })
  | Json.Obj [ ("degraded", Json.Str reason) ] -> Some (Error reason)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The in-process executor                                             *)
(* ------------------------------------------------------------------ *)

type local_opts = {
  campaign : Rp_cli.campaign;
  verify : bool;
      (** [--verify-passes]: compile under translation validation; a
          degraded pass or non-converged analysis aborts the bench (the
          CI soundness gate) instead of quarantining the cell *)
  plant_hang : string option;
      (** ["program:config"]: wedge that cell on purpose, the supervision
          layer's own test fixture *)
  native : (Native.cc * Rp_support.Cas.t) option;
      (** [--native]: the compiler and its binary store *)
  keep_per_func : bool;  (** table mode's mlink table reads them *)
}

exception Quarantined of string

let assert_healthy pname (st : Pipeline.stage_stats) =
  if not st.Pipeline.converged then
    Fmt.failwith "analysis did not converge for %s" pname;
  match st.Pipeline.degraded with
  | [] -> ()
  | (pass, reason) :: _ ->
    Fmt.failwith "pass %s degraded compiling %s: %a" pass pname
      Pipeline.pp_reason reason

(** Compile and run one cell.  Program outcomes — traps, resource limits,
    stack overflow — raise {!Quarantined}, identically on every ladder
    rung; a stop by the pool's deadline re-raises as is, so the pool
    counts a timeout and applies its retry policy; a [--verify-passes]
    failure raises [Failure]. *)
let execute o ~should_stop c =
  let pname = c.prog.P.name in
  let config =
    if o.verify then { c.cfg with Config.verify_passes = true } else c.cfg
  in
  let quarantine fmt =
    Printf.ksprintf (fun m -> raise (Quarantined (pname ^ ": " ^ m))) fmt
  in
  try
    let prog, st = Pipeline.compile ~config c.prog.P.source in
    if o.verify then assert_healthy pname st;
    match o.native with
    | None -> (st, I.run ~should_stop prog, None, None)
    | Some (cc, cache) ->
      let rung, t =
        Native.run_laddered ?deadline:o.campaign.Rp_cli.job_timeout ~cache
          ~should_stop ~cc:(Some cc) prog
      in
      (st, t.Native.result, Some rung, Some t)
  with
  | I.Resource_limit (Stopped _) as e -> raise e
  | I.Resource_limit l -> quarantine "resource limit: %s" (I.limit_message l)
  | I.Error m -> quarantine "runtime error: %s" m
  | Stack_overflow -> quarantine "interpreter stack overflow"

(** One supervised job = one cell.  A fatal [--verify-passes] failure
    comes back as [Error] instead of escaping: it must abort the bench,
    not be retried and quarantined by the pool. *)
let job o ~should_stop c =
  if o.plant_hang = Some (cell_name c) then begin
    (* never terminates on its own, but polls its deadline cooperatively *)
    while not (should_stop ()) do
      ignore (Sys.opaque_identity 0)
    done;
    raise Exit
  end;
  let t0 = Clock.now () in
  match execute o ~should_stop c with
  | st, r, rung, native ->
    let t = r.I.total in
    Ok
      {
        answer =
          Ok
            { ops = t.I.ops; loads = t.I.loads; stores = t.I.stores;
              checksum = r.I.checksum; ptr_promoted = st.Pipeline.ptr_promoted;
              per_func = (if o.keep_per_func then r.I.per_func else []) };
        rung;
        timing = Some { st; wall = Clock.elapsed t0; native };
        resumed = false;
      }
  | exception Quarantined m -> Ok (quarantined m)
  | exception Failure m -> Error m

(** Run [cells] on the campaign runner ({!Rp_cli.run_campaign}): per-cell
    deadlines, one attempt per cell, one journal record per finished
    cell, replay of the cells the journal already holds, and the
    runner's [resilience:] line on stderr when a cell was replayed,
    timed out or crashed.  Returns the outcomes in cell order.
    Under [--verify-passes] the first fatal cell in cell order raises
    [Failure], as a sequential run would; a fatal result is never
    journaled. *)
let run_local o cells =
  let results =
    (* the grid's counts are mode-independent by contract, so its digest
       covers only the pipeline *)
    Rp_cli.run_campaign o.campaign ~id:[ "bench" ] ~name:cell_name
      ~encode:(function Ok oc -> Some (answer_json oc.answer) | Error _ -> None)
      ~decode:(fun j ->
        Option.map
          (fun answer ->
            Ok { answer; rung = None; timing = None; resumed = true })
          (answer_of_json j))
      (job o) cells
  in
  List.map2
    (fun c -> function
      | Ok (Ok oc) -> oc
      | Ok (Error fatal) -> failwith fatal
      | Error f ->
        quarantined
          (Fmt.str "%s under %s: %a" c.prog.P.name c.cname
             Rp_support.Pool.pp_job_failure f))
    cells results

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(** Where the grid runs.  [run] returns one outcome per cell, in cell
    order; [finish] writes the executor's own report once the counts
    document is out. *)
type executor = {
  via : string;  (** names a remote executor in the "wrote" line *)
  run : cell list -> outcome list;
  finish : outcome list -> since:float -> unit;
}

(** [{program: {config: f cell outcome}}] in grid order. *)
let by_program outcomes f =
  let cells = List.combine grid outcomes in
  Json.Obj
    (List.map
       (fun (p : P.program) ->
         ( p.P.name,
           Json.Obj
             (List.filter_map
                (fun (c, o) ->
                  if c.prog.P.name = p.P.name then Some (c.cname, f c o)
                  else None)
                cells) ))
       P.all)

(** The one driver: run the paper grid on [ex] and write
    [BENCH_counts.json] (schema v9) from the outcomes.  [exec] counts the
    [--native] cells the degradation ladder served from its interpreter
    rung: top-level rather than per cell, so the cells stay byte-identical
    across modes, and 0 on every healthy run. *)
let export ex =
  let since = Clock.now () in
  let outcomes = ex.run grid in
  let fell = List.filter (fun o -> o.rung = Some `Interp) outcomes in
  Json.to_file "BENCH_counts.json"
    (Json.Obj
       [
         ("schema", Json.Str "rpcc-bench-counts/9");
         ("programs", by_program outcomes (fun _ o -> answer_json o.answer));
         ( "exec",
           Json.Obj [ ("degraded_native", Json.Int (List.length fell)) ] );
       ]);
  Fmt.pr "wrote BENCH_counts.json (%d programs x %d configs)%s@."
    (List.length P.all)
    (List.length Config.paper_grid)
    ex.via;
  ex.finish outcomes ~since

(** Host/toolchain provenance for the timings document: timings are
    machine-dependent, so the machine is named in the file — kernel/arch,
    the C compiler identity (even for interpreted runs, so an
    interp-vs-native pair taken on one host is self-describing), and the
    OCaml word size. *)
let host_json o =
  let uname =
    try
      let ic = Unix.open_process_in "uname -srm 2>/dev/null" in
      let line = try Some (input_line ic) with End_of_file -> None in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None
  in
  let cc =
    match o.native with Some (cc, _) -> Some cc | None -> Native.find_cc ()
  in
  Json.Obj
    [
      ("uname", Json.Str (Option.value uname ~default:"unknown"));
      ( "cc",
        Json.Str
          (Option.fold cc ~none:"unavailable" ~some:(fun cc ->
               cc.Native.identity)) );
      ("word_size", Json.Int Sys.word_size);
    ]

(** [BENCH_timings.json] (schema v4): per cell, wall and run time, the
    native split and ladder rung under [--native], and the compile's
    per-pass stats; plus the job count, the host and the grid's
    wall-clock.  Machine-dependent, for comparing runs on one host. *)
let write_timings o outcomes ~since =
  let grid_wall = Clock.elapsed since in
  let cell c oc =
    match oc.timing with
    | Some t ->
      let compile_s = Pipeline.total_time t.st in
      Json.Obj
        ([
           ("wall_ms", Json.Float (1000. *. t.wall));
           (* interpreted, the run's share is wall minus compile;
              native, the binary's measured time *)
           ( "run_ms",
             Json.Float
               (match t.native with
               | Some n -> n.Native.exec_ms
               | None -> 1000. *. max 0. (t.wall -. compile_s)) );
         ]
        @ (match t.native with
          | Some n ->
            [
              ("cc_ms", Json.Float n.Native.cc_ms);
              ("cc_cache_hit", Json.Bool n.Native.cache_hit);
              ( "exec_mode",
                Json.Str (if oc.rung = Some `Interp then "interp" else "native")
              );
            ]
          | None -> [])
        @ [ ("compile", Pipeline.stats_json c.cfg t.st) ])
    | None when oc.resumed -> Json.Obj [ ("resumed", Json.Bool true) ]
    | None ->
      Json.Obj
        [
          ( "degraded",
            Json.Str
              (match oc.answer with Error r -> r | Ok _ -> "quarantined") );
        ]
  in
  let compile_s =
    List.fold_left
      (fun acc oc ->
        match oc.timing with
        | Some t -> acc +. Pipeline.total_time t.st
        | None -> acc)
      0. outcomes
  in
  Json.to_file "BENCH_timings.json"
    (Json.Obj
       [
         ("schema", Json.Str "rpcc-bench-timings/4");
         ("jobs", Json.Int (Rp_cli.jobs o.campaign.Rp_cli.jobs));
         ( "mode",
           Json.Str (if Option.is_none o.native then "interp" else "native") );
         ("host", host_json o);
         ("programs", by_program outcomes cell);
         ("total_compile_ms", Json.Float (1000. *. compile_s));
         ("grid_wall_ms", Json.Float (1000. *. grid_wall));
       ]);
  Fmt.pr "wrote BENCH_timings.json@."

let in_process o = { via = ""; run = run_local o; finish = write_timings o }

(* ------------------------------------------------------------------ *)
(* The remote executor: a running rpcc serve daemon                  *)
(* ------------------------------------------------------------------ *)

(* With [native], the daemon answers through its degradation ladder and
   names the rung in the response's [exec] object; the counts are
   mode-independent by contract. *)
let requests ~native cells =
  List.mapi
    (fun i c ->
      Json.Obj
        ([
           ("schema", Json.Str Rp_serve.Protocol.schema);
           ("id", Json.Int i);
           ("client", Json.Str "bench");
           ("op", Json.Str "run");
           ("src", Json.Str c.prog.P.source);
           ("config", Json.Str c.cname);
         ]
        @ if native then [ ("mode", Json.Str "native") ] else []))
    cells

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k = function
      | x :: rest when k > 0 ->
        let head, tail = take (k - 1) rest in
        (x :: head, tail)
      | rest -> ([], rest)
    in
    let head, tail = take n l in
    head :: chunks n tail

(** Only the count fields are read from a response, so a cached, a
    fresh and a native answer give the same outcome. *)
let outcome_of_response c resp =
  let int_at path =
    match
      List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some resp) path
    with
    | Some (Json.Int i) -> Some i
    | _ -> None
  in
  let reason fmt =
    Printf.ksprintf (Printf.sprintf "%s under %s: %s" c.prog.P.name c.cname) fmt
  in
  let answer =
    match Rp_serve.Protocol.response_status resp with
    | "ok" -> (
      let res k = int_at [ "result"; k ] in
      match (res "ops", res "loads", res "stores", res "checksum") with
      | Some ops, Some loads, Some stores, Some checksum ->
        Ok
          {
            ops; loads; stores; checksum;
            ptr_promoted =
              Option.value ~default:0
                (int_at [ "stats"; "counters"; "ptr_promoted" ]);
            per_func = [];
          }
      | _ -> Error (reason "malformed daemon result"))
    | status ->
      Error
        (reason "daemon %s: %s" status
           (match Json.member "message" resp with
           | Some (Json.Str m) -> m
           | _ -> "no message"))
  in
  let rung =
    match Option.bind (Json.member "exec" resp) (Json.member "degraded") with
    | Some (Json.Bool true) -> Some `Interp
    | Some _ -> Some `Native
    | None -> None
  in
  { answer; rung; timing = None; resumed = false }

let grid_wall ~since =
  Fmt.pr "grid wall: %.1f ms@." (1000. *. Clock.elapsed since)

(** A running [rpcc serve] daemon.  Requests go in batches of at most 32
    per connection, inside the daemon's default queue bound. *)
let daemon ~socket ~native =
  let run cells =
    let responses =
      try
        List.concat_map
          (Rp_serve.Client.call ~timeout:300. ~socket)
          (chunks 32 (requests ~native cells))
      with
      | Unix.Unix_error (e, _, _) ->
        Fmt.epr "cannot reach daemon at %s: %s@." socket
          (Unix.error_message e);
        exit 2
      | Rp_serve.Client.Timeout m ->
        Fmt.epr "daemon timeout: %s@." m;
        exit 3
    in
    (* supervision lives backend-side: its counters are in health *)
    if List.length responses <> List.length cells then begin
      Fmt.epr "daemon answered %d of %d requests@." (List.length responses)
        (List.length cells);
      exit 2
    end;
    List.map2 outcome_of_response cells responses
  in
  { via = " via " ^ socket; run; finish = (fun _ -> grid_wall) }

(* ------------------------------------------------------------------ *)
(* The paper's tables                                                  *)
(* ------------------------------------------------------------------ *)

(** A table row: the cells it reads, and how it prints them.  [print]
    gets a lookup that raises {!Quarantined} for a quarantined cell. *)
type row = {
  reads : (P.program * Config.t) list;
  print : (P.program -> Config.t -> counts) -> unit;
}

(** A table prints its head, then its rows.  A quarantined cell ends the
    table with its reason; the remaining tables still run. *)
type table = { head : unit -> unit; rows : row list }

let row p cfg f = { reads = [ (p, cfg) ]; print = (fun get -> f (get p cfg)) }

let pct without with_ =
  if without = 0 then 0.
  else 100. *. float_of_int (without - with_) /. float_of_int without

(** The common shape: two label columns, then one cell's ops, loads and
    stores per row. *)
let ols ~title ~cols:(c1, w1, c2, w2) ?(note = "") rows =
  {
    head =
      (fun () ->
        Fmt.pr "@.== %s ==@." title;
        Fmt.pr "%-*s %-*s %12s %12s %12s%s@." w1 c1 w2 c2 "ops" "loads"
          "stores" note);
    rows =
      List.map
        (fun (l1, l2, p, cfg) ->
          row p cfg (fun c ->
              Fmt.pr "%-*s %-*s %12d %12d %12d@." w1 l1 w2 l2 c.ops c.loads
                c.stores))
        rows;
  }

let tables () =
  let d = Config.default in
  let water = P.find "water" and mlink = P.find "mlink" in
  let grid_cfg name = List.assoc name Config.paper_grid in
  (* (program, label, cfg) rows for named programs × labelled configs *)
  let each names configs =
    List.concat_map
      (fun name ->
        List.map (fun (l, cfg) -> (name, l, P.find name, cfg)) configs)
      names
  in
  (* water at the four register-file sizes *)
  let ks configs =
    List.concat_map
      (fun k ->
        List.map
          (fun (l, cfg) -> (string_of_int k, l, water, { cfg with Config.k }))
          configs)
      [ 12; 16; 24; 32 ]
  in
  let metric title pick =
    {
      head =
        (fun () ->
          Fmt.pr "@.== %s ==@." title;
          Fmt.pr "%-10s %-8s %12s %12s %12s %10s@." "Program" "analysis"
            "without" "with" "difference" "% removed");
      rows =
        List.concat_map
          (fun (p : P.program) ->
            List.map
              (fun analysis ->
                let wo = grid_cfg (analysis ^ "/without")
                and w = grid_cfg (analysis ^ "/with") in
                {
                  reads = [ (p, wo); (p, w) ];
                  print =
                    (fun get ->
                      let without = pick (get p wo)
                      and with_ = pick (get p w) in
                      Fmt.pr "%-10s %-8s %12d %12d %12d %10.2f@." p.P.name
                        analysis without with_ (without - with_)
                        (pct without with_));
                })
              [ "modref"; "pointer" ])
          P.all;
    }
  in
  let scalar = { d with Config.analysis = Config.Apointer } in
  let both = { scalar with Config.ptr_promote = true } in
  [
    (* Figure 4: program descriptions *)
    {
      head =
        (fun () ->
          Fmt.pr "@.== Figure 4: Program Descriptions ==@.";
          Fmt.pr "%-10s  %-6s  %-40s@." "Program" "Lines" "Description";
          List.iter
            (fun (p : P.program) ->
              Fmt.pr "%-10s  %-6d  %-40s@." p.P.name
                (List.length (String.split_on_char '\n' p.P.source))
                p.P.description)
            P.all;
          Fmt.pr "@.Paper-shape notes:@.";
          List.iter
            (fun (p : P.program) ->
              Fmt.pr "  %-10s %s@." p.P.name p.P.paper_note)
            P.all);
      rows = [];
    };
    (* semantic preservation across the whole grid, before any figure *)
    {
      head = ignore;
      rows =
        List.map
          (fun (p : P.program) ->
            let cfgs = List.map snd Config.paper_grid in
            {
              reads = List.map (fun cfg -> (p, cfg)) cfgs;
              print =
                (fun get ->
                  match List.map (fun cfg -> (get p cfg).checksum) cfgs with
                  | base :: rest when not (List.for_all (( = ) base) rest) ->
                    Fmt.failwith
                      "checksum mismatch across configurations for %s" p.P.name
                  | _ -> ());
            })
          P.all;
    };
    (* Figures 5, 6, 7: total operations / stores / loads *)
    metric "Figure 5: Total Operations" (fun c -> c.ops);
    metric "Figure 6: Stores" (fun c -> c.stores);
    metric "Figure 7: Loads" (fun c -> c.loads);
    (* §5 in-text: "register promotion removed 2.8 million loads from one
       function in mlink" *)
    {
      head =
        (fun () ->
          Fmt.pr
            "@.== Section 5: mlink's hot function (per-function counts) ==@.";
          Fmt.pr
            "%-18s %-9s %10s %10s   (paper: promotion removed 2.8M loads \
             from one function)@."
            "Function" "promotion" "loads" "stores");
      rows =
        List.map
          (fun (name, cfg) ->
            row mlink cfg (fun c ->
                List.iter
                  (fun (fn, (f : I.counts)) ->
                    if fn = "likelihood_pass" then
                      Fmt.pr "%-18s %-9s %10d %10d@." fn name f.I.loads
                        f.I.stores)
                  c.per_func))
          [ ("without", { d with Config.promote = false }); ("with", d) ];
    };
    (* §3.3: scalar promotion vs scalar + pointer-based promotion *)
    {
      head =
        (fun () ->
          Fmt.pr
            "@.== Section 3.3: pointer-based promotion on top of scalar ==@.";
          Fmt.pr
            "%-10s %14s %14s %14s %10s   (additional removals vs \
             scalar-only; paper: ~0 everywhere except fft — the \
             pointer-walk programs are this reproduction's additions)@."
            "Program" "ops" "stores" "loads" "promoted");
      rows =
        List.map
          (fun (p : P.program) ->
            {
              reads = [ (p, scalar); (p, both) ];
              print =
                (fun get ->
                  let a = get p scalar and b = get p both in
                  if a.checksum <> b.checksum then
                    Fmt.failwith "checksum mismatch (3.3) for %s" p.P.name;
                  Fmt.pr "%-10s %14d %14d %14d %10d@." p.P.name (a.ops - b.ops)
                    (a.stores - b.stores) (a.loads - b.loads) b.ptr_promoted);
            })
          P.all;
    };
    ols ~title:"Section 5: register pressure (water)"
      ~cols:("k", 4, "promotion", 9)
      ~note:
        "   (paper: promotion causes spills and a net loss in tight \
         register files)"
      (ks [ ("without", { d with Config.promote = false }); ("with", d) ]);
    (* ablations for the design decisions called out in DESIGN.md §6 *)
    ols ~title:"Ablation 1: what interprocedural analysis buys promotion"
      ~cols:("Program", 10, "configuration", 22)
      ~note:
        "   (without analysis every call carries ⊤ MOD/REF: loops \
         containing calls — clean's emit, bc's dispatch — lose their \
         promotions; call-free hot loops like mlink's keep the front end's \
         direct-access precision)"
      (each [ "clean"; "bc"; "mlink" ]
         [
           ("none+promotion", { d with Config.analysis = Config.Anone });
           ("modref+promotion", d);
         ]);
    ols
      ~title:
        "Ablation 2: unconditional exit stores (the paper's literal scheme)"
      ~cols:("Program", 10, "configuration", 22)
      ~note:"   (always_store adds write-backs for read-only promotions)"
      (each [ "go"; "bison"; "gzip(dec)" ]
         [
           ("store-if-stored", d);
           ("always-store", { d with Config.always_store = true });
         ]);
    ols
      ~title:
        "Ablation 3: the optimizer without promotion vs promotion without \
         the optimizer"
      ~cols:("Program", 10, "configuration", 22)
      (each [ "mlink"; "clean" ]
         [
           ("neither", { d with Config.promote = false; optimize = false });
           ("optimizer-only", { d with Config.promote = false });
           ("promotion-only", { d with Config.optimize = false });
           ("both", d);
         ]);
    ols
      ~title:"Ablation 4: the §7 pressure throttle (future work, implemented)"
      ~cols:("k", 4, "promotion", 12)
      ~note:
        "   (water; the throttle keeps the least-referenced promotable \
         values in memory instead of spilling)"
      (ks
         [
           ("without", { d with Config.promote = false });
           ("naive", d);
           ("throttled", { d with Config.throttle = true });
         ]);
    ols
      ~title:
        "Ablation 5: global dead-store elimination (a §3.4 extension, off by \
         default)"
      ~cols:("Program", 10, "configuration", 12)
      (each [ "mlink"; "indent"; "gzip(enc)" ]
         [ ("paper", d); ("paper+dse", { d with Config.dse = true }) ]);
    ols ~title:"Ablation 6: the analysis-precision ladder (with promotion)"
      ~cols:("Program", 10, "analysis", 9)
      ~note:
        "   (none < Steensgaard [20] < MOD/REF < Ruf-style points-to; the \
         paper's claim is that the top rungs barely differ)"
      (each [ "fft"; "bc"; "clean"; "go" ]
         (List.map
            (fun analysis ->
              (Config.analysis_name analysis, { d with Config.analysis }))
            [ Config.Anone; Config.Asteens; Config.Amodref; Config.Apointer ]));
  ]

(** Table mode: run every cell the tables read, once each, on the
    in-process executor — tables share cells (Figure 5's [modref/with] is
    also Ablation 1's [modref+promotion]) — then print the tables. *)
let print_tables o =
  let tables = tables () in
  let key (p : P.program) cfg = (p.P.name, Config.fingerprint cfg) in
  let index = Hashtbl.create 128 in
  let cells =
    List.concat_map (fun t -> List.concat_map (fun r -> r.reads) t.rows) tables
    |> List.filter_map (fun (prog, cfg) ->
           if Hashtbl.mem index (key prog cfg) then None
           else begin
             Hashtbl.add index (key prog cfg) (Hashtbl.length index);
             Some { prog; cname = Config.name cfg; cfg }
           end)
  in
  let outcomes = Array.of_list (run_local o cells) in
  let get p cfg =
    match outcomes.(Hashtbl.find index (key p cfg)).answer with
    | Ok c -> c
    | Error m ->
      raise (Quarantined (Printf.sprintf "%s under %s" m (Config.name cfg)))
  in
  Fmt.pr
    "Register Promotion in C Programs (Cooper & Lu, PLDI 1997) — \
     reproduction@.";
  Fmt.pr
    "Memory-operation hierarchy (Table 1): iLoad, cLoad, sLoad/sStore, \
     Load/Store@.";
  List.iter
    (fun t ->
      t.head ();
      try List.iter (fun r -> r.print get) t.rows
      with Quarantined m -> Fmt.pr "  quarantined: %s@." m)
    tables;
  Fmt.pr "@.All configurations produced identical checksums per program.@."

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type opts = {
  json : bool;
  campaign : Rp_cli.campaign;
  verify : bool;
  plant_hang : string option;
  via_daemon : string option;
  native : bool;
  plant_cc_failure : bool;
  cc_flags : string option;
}

(** Every flag combination the selected executor would not honour, with
    its usage message: a flag it would ignore is an error, never silently
    dropped. *)
let conflicts o =
  let given = Option.is_some in
  let via_daemon = given o.via_daemon in
  let { Rp_cli.jobs; job_timeout; journal } = o.campaign in
  let supervision = given job_timeout || given journal || given o.plant_hang in
  [
    (o.native && not o.json, "--native requires --json");
    (via_daemon && not o.json, "--via-daemon requires --json");
    ( supervision && not o.json,
      "--job-timeout/--journal/--plant-hang require --json" );
    ( o.plant_cc_failure && not o.native,
      "--plant-cc-failure requires --native" );
    (given o.cc_flags && not o.native, "--cc-flags requires --native");
    ( via_daemon && (supervision || o.verify),
      "--via-daemon supervises and verifies backend-side: it takes none of \
       --job-timeout/--journal/--plant-hang/--verify-passes" );
    ( via_daemon && (o.plant_cc_failure || given o.cc_flags),
      "--plant-cc-failure/--cc-flags configure a local compiler and cannot \
       be combined with --via-daemon" );
    ( via_daemon && given jobs,
      "--jobs does not apply to --via-daemon (the daemon sets its own)" );
    ( given o.plant_hang && not (given job_timeout),
      "--plant-hang requires --job-timeout" );
    ( (match o.plant_hang with
      | Some s -> not (List.exists (fun c -> s = cell_name c) grid)
      | None -> false),
      "--plant-hang must name a grid cell PROGRAM:CONFIG" );
  ]

(* --native in this process: this user's binary store, and the compiler
   or, with --plant-cc-failure, one that cannot exist, so every cell's
   native attempt fails and the interpreter rung answers.  The planted
   identity keeps its binary keys clear of any real compiler's warm
   store.  Opened once, before the worker pool spawns. *)
let native_cc o =
  let flags =
    match o.cc_flags with
    | Some s -> List.filter (( <> ) "") (String.split_on_char ' ' s)
    | None -> [ "-O1" ]
  in
  let cas =
    try Rp_support.Cas.open_ (Native.default_cache_dir ())
    with Native.Error m ->
      Fmt.epr "--native: %s@." m;
      exit 2
  in
  if o.plant_cc_failure then
    ( {
        Native.path = "/nonexistent/rpcc-planted-cc";
        flags;
        identity = "planted-broken-cc";
      },
      cas )
  else
    match Native.find_cc ~flags () with
    | Some cc -> (cc, cas)
    | None ->
      Fmt.epr "--native: no working C compiler found (probed `cc --version`)@.";
      exit 2

let main o =
  Option.iter
    (fun (_, msg) -> Rp_cli.usage msg)
    (List.find_opt fst (conflicts o));
  let local ~keep_per_func native =
    {
      campaign = o.campaign;
      verify = o.verify;
      plant_hang = o.plant_hang;
      native;
      keep_per_func;
    }
  in
  if not o.json then print_tables (local ~keep_per_func:true None)
  else
    match o.via_daemon with
    | Some socket -> export (daemon ~socket ~native:o.native)
    | None ->
      let native = if o.native then Some (native_cc o) else None in
      export (in_process (local ~keep_per_func:false native))

let opts_t =
  let open Cmdliner in
  let flag name doc = Arg.(value & flag (info [ name ] ~doc)) in
  let opt c name docv doc =
    Arg.(value & opt (some c) None (info [ name ] ~docv ~doc))
  in
  let make json campaign verify plant_hang via_daemon native plant_cc_failure
      cc_flags =
    { json; campaign; verify; plant_hang; via_daemon; native; plant_cc_failure;
      cc_flags }
  in
  Term.(
    const make
    $ flag "json"
        "Write the paper grid's counts to BENCH_counts.json (and, run \
         in-process, its timings to BENCH_timings.json) instead of \
         printing the tables."
    $ Rp_cli.campaign_t
    $ flag "verify-passes"
        "Compile every cell under translation validation; a degraded pass \
         or non-converged analysis aborts the bench (exit 2)."
    $ opt Arg.string "plant-hang" "PROGRAM:CONFIG"
        "Test fixture: wedge this grid cell until its $(b,--job-timeout) \
         fires."
    $ opt Arg.string "via-daemon" "SOCKET"
        "Run the grid through the rpcc serve daemon listening on $(docv)."
    $ flag "native"
        "Execute every cell through the compiled-C backend's degradation \
         ladder; the counts document is byte-identical to an interpreted \
         run."
    $ flag "plant-cc-failure"
        "Fault drill: a compiler that cannot run fails every native \
         attempt, so every cell falls to the interpreter rung."
    $ opt Arg.string "cc-flags" "FLAGS"
        "Space-separated flags for the C compiler under $(b,--native) \
         (default -O1).")

let () =
  let open Cmdliner in
  let exits =
    Cmd.Exit.info 0 ~doc:"on success."
    :: Cmd.Exit.info 2
         ~doc:
           "on a usage error (a flag the selected mode does not take, a \
            bad value), an unreachable daemon, or a fatal \
            $(b,--verify-passes) failure."
    :: Cmd.Exit.info 3 ~doc:"on a daemon timeout."
    :: Cmd.Exit.info 130
         ~doc:"when interrupted (SIGINT), after flushing the journal."
    :: Cmd.Exit.defaults
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench" ~exits
         ~doc:"Regenerate the paper's evaluation: tables, or the counts grid.")
      Term.(const main $ opts_t)
  in
  (* ~catch:false: an escaping exception — a fatal --verify-passes
     failure, a table's checksum check — exits 2 through OCaml's
     uncaught-exception handler, not cmdliner's 125 *)
  exit (Cmd.eval ~catch:false cmd)
