(** The [rpcc serve] daemon.  See daemon.mli for the contract.

    Concurrency model: the main domain runs one [select] loop that owns
    the listener, every connection, the journal, and the request/response
    assembly; admitted jobs run on the daemon's persistent supervised
    pool, which wakes the loop through its fd when a job resolves.  Job
    bodies touch only thread-safe state (the CAS); the plain counters
    below are main-domain-only. *)

module Json = Rp_support.Json
module Cas = Rp_support.Cas
module Pool = Rp_support.Pool
module Journal = Rp_support.Journal
module Clock = Rp_support.Clock
module Config = Rp_driver.Config
module Pipeline = Rp_driver.Pipeline

type config = {
  socket : string;
  state_dir : string;
  jobs : int;
  queue_bound : int;
  job_timeout : float option;
}

let default_config =
  {
    socket = "rpcc.sock";
    state_dir = ".rpcc-serve";
    jobs = 1;
    queue_bound = 64;
    job_timeout = Some 30.;
  }

(** Journal-replay summary, frozen at startup and reported by [health]. *)
type journal_summary = {
  mutable records : int;  (** readable records in the journal at startup *)
  mutable skipped : int;  (** corrupt records skipped by CRC/parse checks *)
  mutable replayed : int;  (** [done] records: work already in the cache *)
  mutable lost_inflight : int;
      (** [recv] records with no matching [done]: jobs that were running
          when the previous daemon died *)
  mutable compacted : int;
      (** records dropped by startup compaction (matched recv/done pairs
          and corrupt lines) *)
}

type state = {
  cfg : config;
  cas : Cas.t;
  journal : Journal.writer;
  jsum : journal_summary;
  started : float;  (** {!Clock.now} at startup, for uptime *)
  mutable served : int;  (** [ok] responses written *)
  mutable errors : int;  (** [error] responses written *)
  mutable overloaded : int;  (** requests bounced by the queue bound *)
  mutable timeouts : int;  (** jobs the pool timed out *)
  mutable crashed : int;  (** jobs that crashed on the pool *)
  mutable queued : int;
      (** jobs admitted and not yet answered, across all connections *)
}

(* ------------------------------------------------------------------ *)
(* Journal replay                                                      *)
(* ------------------------------------------------------------------ *)

(** A job's identity across its [recv]/[done] record pair. *)
let record_sig r =
  let f k =
    match Json.member k r with Some (Json.Str s) -> s | _ -> ""
  in
  let id =
    match Json.member "id" r with
    | Some j -> Json.to_string ~indent:false j
    | None -> ""
  in
  String.concat "\x00" [ f "client"; id; f "op"; f "key" ]

let replay ~journal_path jsum =
  let records =
    Journal.load
      ~on_skip:(fun ~line:_ _ -> jsum.skipped <- jsum.skipped + 1)
      journal_path
  in
  jsum.records <- List.length records;
  (* multiset of recv signatures not yet matched by a done *)
  let pending : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let s = record_sig r in
      match Json.member "ev" r with
      | Some (Json.Str "recv") ->
        Hashtbl.replace pending s
          (1 + Option.value (Hashtbl.find_opt pending s) ~default:0)
      | Some (Json.Str "done") -> (
        jsum.replayed <- jsum.replayed + 1;
        match Hashtbl.find_opt pending s with
        | Some n when n > 1 -> Hashtbl.replace pending s (n - 1)
        | Some _ -> Hashtbl.remove pending s
        | None -> ())
      | _ -> ())
    records;
  jsum.lost_inflight <- Hashtbl.fold (fun _ n acc -> acc + n) pending 0;
  (records, pending)

(** Startup compaction.  Matched recv/done pairs carry no information a
    future replay needs (the work already landed in the CAS), so after
    replay the journal is rewritten to hold only the unmatched [recv]
    records — the lost-in-flight set — via tmp + rename, the same
    atomicity discipline as the store.  Keeps the latest n recvs per
    signature when duplicates are owed.  A crash mid-compaction leaves
    the old journal intact; rerunning is idempotent. *)
let compact ~journal_path jsum (records, pending) =
  let kept =
    let owed = Hashtbl.copy pending in
    List.fold_left
      (fun acc r ->
        match Json.member "ev" r with
        | Some (Json.Str "recv") -> (
          let s = record_sig r in
          match Hashtbl.find_opt owed s with
          | Some n when n > 0 ->
            Hashtbl.replace owed s (n - 1);
            r :: acc
          | _ -> acc)
        | _ -> acc)
      [] (List.rev records)
  in
  jsum.compacted <- jsum.records - List.length kept;
  if (jsum.compacted > 0 || jsum.skipped > 0) && Sys.file_exists journal_path
  then begin
    let tmp = journal_path ^ ".compact.tmp" in
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    let w = Journal.create tmp in
    List.iter (Journal.record w) kept;
    Journal.close w;
    Unix.rename tmp journal_path
  end

(* ------------------------------------------------------------------ *)
(* Job execution                                                       *)
(* ------------------------------------------------------------------ *)

(** Execute one admitted job.  Deterministic failures — traps, front-end
    rejections, resource exhaustion {e of the program} — become [error]
    responses here, inside the job.  The one exception that escapes is a
    [Stopped] [Resource_limit]: that is the pool's own deadline, and
    propagating it lets the pool resolve the job as [Timed_out], which
    {!answer} reports and counts. *)
let handle_op ~should_stop st (r : Protocol.request) : Json.t =
  let err code m = Protocol.error ~id:r.id ~client:r.client ~code m in
  try
    match r.op with
    | Protocol.Health ->
      (* answered by the connection loop, never admitted to the pool *)
      err "internal" "health reached the pool"
    | Protocol.Run { src; config; mode } -> (
      match Protocol.config_of_name config with
      | None -> err "usage" ("unknown config " ^ config)
      | Some cfg ->
        (* native jobs share the interp path's cached answer and its
           source × config key — both engines compute the same answer by
           contract — so a warm daemon serves either mode from one
           entry.  Only a cold job reaches the binary store, which keys a
           binary by the C it was compiled from: configs that emit the
           same code, and a daemon and its restarted successor, share
           it.  The degradation ladder means a native request never
           fails for infrastructure reasons: it answers slower, from the
           interpreter, and says so in the [exec] object. *)
        let native = mode = Protocol.Native in
        let exec_info = ref ("cached", false) in
        let runner p =
          let rung, t =
            Rp_backend.Native.(
              run_laddered ?deadline:st.cfg.job_timeout ~cache:st.cas
                ~should_stop ~cc:(find_cc ()) p)
          in
          (exec_info :=
             match rung with
             | `Native -> ("native", false)
             | `Interp -> ("interp", true));
          t.Rp_backend.Native.result
        in
        let c =
          Pipeline.compile_and_run_cached ~config:cfg ~should_stop
            ?runner:(if native then Some runner else None)
            ~cas:st.cas src
        in
        let mode_used, degraded = !exec_info in
        Protocol.ok ~id:r.id ~client:r.client
          ([ ("result", Pipeline.result_json c); ("stats", c.Pipeline.stats) ]
          @
          if native then
            [
              ( "exec",
                Json.Obj
                  [
                    ("mode", Json.Str mode_used);
                    ("degraded", Json.Bool degraded);
                  ] );
            ]
          else []))
  with
  | Rp_exec.Interp.Resource_limit (Stopped _) as e -> raise e
  | Rp_exec.Interp.Error m -> err "trap" m
  | Rp_exec.Interp.Resource_limit l ->
    err "resource" (Rp_exec.Interp.limit_message l)
  | Rp_minic.Srcloc.Error (loc, msg) ->
    err "usage" (Rp_minic.Srcloc.to_string (loc, msg))
  | Failure m -> err "usage" m
  | Stack_overflow -> err "internal" "Stack_overflow"
  | Out_of_memory -> raise Out_of_memory
  | e -> err "internal" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)
(* ------------------------------------------------------------------ *)

let health_json st ~id ~client =
  (* probed once per process (memoized in find_cc); [null]/[null] when
     there is no system compiler, so clients can pre-degrade instead of
     submitting native jobs that will ladder down *)
  let cc = Rp_backend.Native.find_cc () in
  Protocol.ok ~id ~client
    [
      ( "health",
        Json.Obj
          [
            ("pid", Json.Int (Unix.getpid ()));
            ("uptime_s", Json.Int (int_of_float (Clock.elapsed st.started)));
            ("pass_version", Json.Str Pipeline.pass_version);
            ( "cc",
              Option.fold cc ~none:Json.Null ~some:(fun cc ->
                  Json.Str cc.Rp_backend.Native.identity) );
            ("native", if cc = None then Json.Null else Json.Bool true);
            ("served", Json.Int st.served);
            ("errors", Json.Int st.errors);
            ("overloaded", Json.Int st.overloaded);
            ("jobs", Json.Int st.cfg.jobs);
            ("queue_bound", Json.Int st.cfg.queue_bound);
            ("cache", Cas.stats_json st.cas);
            ( "resilience",
              Json.Obj
                [
                  ("timeouts", Json.Int st.timeouts);
                  ("crashed", Json.Int st.crashed);
                ] );
            ( "journal",
              Json.Obj
                [
                  ("records", Json.Int st.jsum.records);
                  ("skipped", Json.Int st.jsum.skipped);
                  ("replayed", Json.Int st.jsum.replayed);
                  ("lost_inflight", Json.Int st.jsum.lost_inflight);
                  ("compacted_records", Json.Int st.jsum.compacted);
                ] );
          ] );
    ]

(** What each request line of a batch resolved to before the pool ran. *)
type slot =
  | Immediate of Json.t  (** parse/usage error or [overloaded] *)
  | Deferred_health of Json.t * string  (** (id, client): built post-batch *)
  | Job_slot of int  (** index into the admitted-jobs array *)

(** Where a connection is in its exchange. *)
type phase =
  | Reading of Buffer.t  (** the batch so far, until the client's EOF *)
  | Running of {
      slots : slot list;
      jobs : Protocol.request array;
      batch : Json.t Pool.batch;
    }
  | Writing of { out : string; mutable off : int }

type conn = {
  fd : Unix.file_descr;
  mutable phase : phase;
  mutable deadline : float;
      (** {!Clock} reading; [infinity] while the batch runs (the pool
          enforces job deadlines) *)
}

(** The batch's request lines, as [input_line] would return them: a
    final unterminated line counts. *)
let lines_of data =
  match List.rev (String.split_on_char '\n' data) with
  | "" :: rest -> List.rev rest
  | all -> List.rev all

let journal_event st ~ev (r : Protocol.request) extra =
  Journal.record st.journal
    (Json.Obj
       ([
          ("ev", Json.Str ev);
          ("id", r.Protocol.id);
          ("client", Json.Str r.Protocol.client);
          ("op", Json.Str (Protocol.op_name r.Protocol.op));
          ("key", Json.Str (Protocol.op_key r.Protocol.op));
        ]
       @ extra))

(** Parse a connection's batch, shed what the queue bound does not
    admit, journal [recv] for the rest and submit them to the pool. *)
let admit st pool data =
  let admitted = ref [] in
  let n_admitted = ref 0 in
  let slots =
    List.map
      (fun line ->
        match Json.parse line with
        | exception Json.Parse_error m ->
          Immediate
            (Protocol.error ~id:Json.Null ~client:"anonymous" ~code:"usage"
               ("bad request line: " ^ m))
        | doc -> (
          let id = Option.value (Json.member "id" doc) ~default:Json.Null in
          let client =
            match Json.member "client" doc with
            | Some (Json.Str s) -> s
            | _ -> "anonymous"
          in
          match Protocol.parse_request doc with
          | Error m -> Immediate (Protocol.error ~id ~client ~code:"usage" m)
          | Ok ({ Protocol.op = Protocol.Health; _ } as r) ->
            Deferred_health (r.Protocol.id, r.Protocol.client)
          | Ok r ->
            if st.queued + !n_admitted >= st.cfg.queue_bound then
              Immediate (Protocol.overloaded ~id ~client)
            else begin
              (* journaled before execution: a crash mid-compute leaves a
                 recv with no done — reported as lost_inflight on restart *)
              journal_event st ~ev:"recv" r [];
              admitted := r :: !admitted;
              incr n_admitted;
              Job_slot (!n_admitted - 1)
            end))
      (lines_of data)
  in
  let jobs = Array.of_list (List.rev !admitted) in
  st.queued <- st.queued + Array.length jobs;
  let batch =
    Pool.submit pool (fun ~should_stop r -> handle_op ~should_stop st r) jobs
  in
  Running { slots; jobs; batch }

(** A finished batch's response lines, in request order: journal [done]
    for each job, and build [health] now, so it counts the responses
    before it. *)
let answer st ~slots ~jobs outcomes =
  st.queued <- st.queued - Array.length jobs;
  let job_response i =
    let r = jobs.(i) in
    let resp =
      match outcomes.(i) with
      | Ok resp -> resp
      | Error (Pool.Timed_out { elapsed }) ->
        st.timeouts <- st.timeouts + 1;
        Protocol.error ~id:r.Protocol.id ~client:r.Protocol.client
          ~code:"resource"
          (Printf.sprintf "job timed out after %.1f s" elapsed)
      | Error (Pool.Crashed { reason }) ->
        st.crashed <- st.crashed + 1;
        Protocol.error ~id:r.Protocol.id ~client:r.Protocol.client
          ~code:"internal" ("job crashed: " ^ reason)
    in
    journal_event st ~ev:"done" r
      [ ("resp", Json.Str (Protocol.response_status resp)) ];
    resp
  in
  let out = Buffer.create 1024 in
  List.iter
    (fun slot ->
      let resp =
        match slot with
        | Immediate j -> j
        | Deferred_health (id, client) -> health_json st ~id ~client
        | Job_slot i -> job_response i
      in
      (match Protocol.response_status resp with
      | "ok" -> st.served <- st.served + 1
      | "error" -> st.errors <- st.errors + 1
      | "overloaded" -> st.overloaded <- st.overloaded + 1
      | _ -> ());
      Buffer.add_string out (Json.to_string ~indent:false resp);
      Buffer.add_char out '\n')
    slots;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* The accept loop                                                     *)
(* ------------------------------------------------------------------ *)

let remove_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    (* probe before unlinking: a connect that succeeds means a live
       daemon owns this name — yanking it out from under that daemon
       would orphan it, so refuse instead *)
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> `Live
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
      | exception Unix.Unix_error (e, _, _) -> `Unsure e
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match verdict with
    | `Stale -> Unix.unlink path
    | `Gone -> ()
    | `Live ->
      failwith
        (path
       ^ " is already being served by a live daemon; stop it or pick \
          another --socket")
    | `Unsure e ->
      failwith
        (Printf.sprintf
           "%s exists and the liveness probe failed (%s); refusing to \
            unlink it"
           path (Unix.error_message e)))
  | _ -> failwith (path ^ " exists and is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(** A connection's budget to send its batch, and again to take its
    answers: a stalled or silent client costs its own connection only. *)
let io_timeout = 30.

(** The most connections the loop holds open at once.  [select] can
    watch only descriptors below [FD_SETSIZE] (1024), which is also the
    usual soft limit on open files: at this many, the loop stops
    accepting, and further clients wait in the listen backlog. *)
let max_connections = 512

(** The event loop's longest sleep.  SIGTERM/SIGINT normally interrupt
    [select]; this bound covers a signal that lands while the loop is
    busy outside [select], or whose handler runs on a worker domain.
    Completions wake the loop through the pool's fd and never wait on
    it. *)
let stop_check = 0.1

let serve (cfg : config) =
  Cas.mkdir_p cfg.state_dir;
  let cas = Cas.open_ (Filename.concat cfg.state_dir "cas") in
  let journal_path = Filename.concat cfg.state_dir "journal.jsonl" in
  let jsum =
    { records = 0; skipped = 0; replayed = 0; lost_inflight = 0;
      compacted = 0 }
  in
  compact ~journal_path jsum (replay ~journal_path jsum);
  let st =
    {
      cfg;
      cas;
      journal = Journal.create journal_path;
      jsum;
      started = Clock.now ();
      served = 0;
      errors = 0;
      overloaded = 0;
      timeouts = 0;
      crashed = 0;
      queued = 0;
    }
  in
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  remove_stale_socket cfg.socket;
  (* close-on-exec throughout: a cc child of a native job must not hold
     another client's connection open past its answer *)
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  let pool = Pool.create ~jobs:cfg.jobs ?timeout:cfg.job_timeout () in
  Printf.printf "rpcc-serve listening on %s (pid %d)\n%!" cfg.socket
    (Unix.getpid ());
  let conns = ref [] in
  let listening = ref true in
  let close_conn c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun c' -> c' != c) !conns
  in
  (* one bad connection (dead peer, junk bytes, a failed journal write)
     costs that connection, never the daemon *)
  let guard c f =
    try f () with Sys_error _ | Unix.Unix_error _ | End_of_file -> close_conn c
  in
  let accepting () = !listening && List.length !conns < max_connections in
  let rec accept () =
    if accepting () then
      match Unix.accept ~cloexec:true lfd with
      | (fd, _) ->
        Unix.set_nonblock fd;
        conns :=
          { fd; phase = Reading (Buffer.create 1024);
            deadline = Clock.now () +. io_timeout }
          :: !conns;
        accept ()
      | exception Unix.Unix_error _ -> () (* the backlog is empty *)
  in
  let chunk = Bytes.create 65536 in
  let on_readable c =
    match c.phase with
    | Reading buf ->
      guard c (fun () ->
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 ->
            c.phase <- admit st pool (Buffer.contents buf);
            c.deadline <- infinity
          | n -> Buffer.add_subbytes buf chunk 0 n
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ())
    | _ -> ()
  in
  let on_writable c =
    match c.phase with
    | Writing w ->
      guard c (fun () ->
          match
            Unix.single_write_substring c.fd w.out w.off
              (String.length w.out - w.off)
          with
          | n ->
            w.off <- w.off + n;
            if w.off = String.length w.out then close_conn c
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ())
    | _ -> ()
  in
  (* answer finished batches; drop connections past their deadline *)
  let step now c =
    match c.phase with
    | Running r when Pool.finished r.batch ->
      guard c (fun () ->
          let out =
            answer st ~slots:r.slots ~jobs:r.jobs (Pool.results r.batch)
          in
          if out = "" then close_conn c
          else begin
            c.phase <- Writing { out; off = 0 };
            c.deadline <- now +. io_timeout
          end)
    | (Reading _ | Writing _) when now >= c.deadline -> close_conn c
    | _ -> ()
  in
  let fds_in phase_is =
    List.filter_map
      (fun c -> if phase_is c.phase then Some c.fd else None)
      !conns
  in
  let rec loop () =
    let wedge = Pool.supervise pool in
    if Atomic.get stop && !listening then begin
      (* drain: stop accepting; a connection still sending its batch was
         promised nothing and journaled nothing *)
      listening := false;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      List.iter
        (fun c -> match c.phase with Reading _ -> close_conn c | _ -> ())
        !conns
    end;
    let now = Clock.now () in
    List.iter (step now) !conns;
    if !listening || !conns <> [] then begin
      let reading = fds_in (function Reading _ -> true | _ -> false) in
      let writing = fds_in (function Writing _ -> true | _ -> false) in
      let timeout =
        List.fold_left
          (fun t c -> Float.min t (c.deadline -. now))
          (Option.fold ~none:stop_check ~some:(Float.min stop_check) wedge)
          !conns
      in
      let listen = if accepting () then [ lfd ] else [] in
      (match
         Unix.select
           ((Pool.wake_fd pool :: listen) @ reading)
           writing [] (Float.max 0. timeout)
       with
      | (r, w, _) ->
        if listen <> [] && List.mem lfd r then accept ();
        List.iter (fun c -> if List.mem c.fd r then on_readable c) !conns;
        List.iter (fun c -> if List.mem c.fd w then on_writable c) !conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (* every admitted batch has been answered *)
  Pool.shutdown pool;
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  Journal.close st.journal
