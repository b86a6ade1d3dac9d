(** The [rpcc serve] daemon.  See daemon.mli for the contract.

    Concurrency model: the main domain owns the socket, the journal, and
    the per-connection request/response assembly; each connection's
    admitted jobs run on the supervised worker pool.  Job bodies touch
    only thread-safe state (the CAS, the breaker, the resilience
    counters); the plain counters below are main-domain-only. *)

module Json = Rp_support.Json
module Cas = Rp_support.Cas
module Pool = Rp_support.Pool
module Journal = Rp_support.Journal
module Resilience = Rp_support.Resilience
module Breaker = Rp_support.Retry.Breaker
module Config = Rp_driver.Config
module Pipeline = Rp_driver.Pipeline

type config = {
  socket : string;
  state_dir : string;
  cas_dir : string option;
  shard_id : int option;
  jobs : int;
  queue_bound : int;
  job_timeout : float option;
  retries : int;
  breaker_threshold : int;
  breaker_cooldown : float;
}

let default_config =
  {
    socket = "rpcc.sock";
    state_dir = ".rpcc-serve";
    cas_dir = None;
    shard_id = None;
    jobs = 0;
    queue_bound = 64;
    job_timeout = Some 30.;
    retries = 1;
    breaker_threshold = 3;
    breaker_cooldown = 5.;
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
  resil : Resilience.t;
  breaker : Breaker.t;
  jsum : journal_summary;
  started : float;  (** {!Rp_support.Clock.now} at startup, for uptime *)
  mutable served : int;  (** [ok] responses written *)
  mutable errors : int;  (** [error] responses written *)
  mutable overloaded : int;  (** requests bounced by the queue bound *)
  mutable rejected : int;  (** requests bounced by an open breaker *)
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

(* One probe per process, memoized inside {!Rp_backend.Native.find_cc}
   (with the CAS rung making it survive restarts), so calling this per
   native job or health request costs a hashtable lookup. *)
let native_cc st = Rp_backend.Native.find_cc ~cache:st.cas ()

let result_json (c : Pipeline.cached_run) =
  Json.Obj
    [
      ("output", Json.Str c.Pipeline.output);
      ("checksum", Json.Int c.Pipeline.checksum);
      ("ops", Json.Int c.Pipeline.ops);
      ("loads", Json.Int c.Pipeline.loads);
      ("stores", Json.Int c.Pipeline.stores);
    ]

(** Execute one admitted job.  Deterministic failures — traps, front-end
    rejections, resource exhaustion {e of the program} — become [error]
    responses here, inside the job: retrying them cannot help.  The one
    exception that escapes is an external-stop [Resource_limit]: that is
    the pool's own deadline, and propagating it lets the supervision
    layer do its retry/timeout/quarantine accounting. *)
let handle_op ~should_stop st (r : Protocol.request) : Json.t =
  let err code m = Protocol.error ~id:r.id ~client:r.client ~code m in
  let compile_family ~src ~config payload_of =
    match Protocol.config_of_name config with
    | None -> err "usage" ("unknown config " ^ config)
    | Some cfg ->
      let c =
        Pipeline.compile_and_run_cached ~config:cfg ~should_stop ~cas:st.cas
          src
      in
      Protocol.ok ~id:r.id ~client:r.client (payload_of c)
  in
  try
    match r.op with
    | Protocol.Health ->
      (* answered by the connection loop, never admitted to the pool *)
      err "internal" "health reached the pool"
    | Protocol.Run { src; config; mode = Protocol.Interp } ->
      compile_family ~src ~config (fun c ->
          [ ("result", result_json c); ("stats", c.Pipeline.stats) ])
    | Protocol.Run { src; config; mode = Protocol.Native } -> (
      (* native jobs share the interp path's result artifacts and their
         source × config key — both engines compute the same answer by
         contract — so a warm shard serves either mode from one entry.
         Only a cold job reaches the binary store, which keys a binary by
         the C it was compiled from: configs that emit the same code, and
         shards on one store, share it.  The degradation ladder means a
         native request never fails for infrastructure reasons: it
         answers slower, from a lower rung, and says so in the [exec]
         object. *)
      match Protocol.config_of_name config with
      | None -> err "usage" ("unknown config " ^ config)
      | Some cfg ->
        let exec_info = ref ("cached", false) in
        let runner p =
          let lad =
            Rp_backend.Native.run_laddered ?deadline:st.cfg.job_timeout
              ~cache:st.cas
              ~interp:(fun () ->
                let t0 = Rp_support.Clock.now () in
                let r = Rp_exec.Interp.run ~should_stop p in
                (r, (Rp_support.Clock.now () -. t0) *. 1000.))
              ~cc:(native_cc st) p
          in
          (exec_info :=
             match lad.Rp_backend.Native.l_mode with
             | `Native -> ("native", false)
             | `Interp -> ("interp", true));
          lad.Rp_backend.Native.l_result
        in
        let c =
          Pipeline.compile_and_run_cached ~config:cfg ~should_stop ~runner
            ~cas:st.cas src
        in
        let mode_used, degraded = !exec_info in
        Protocol.ok ~id:r.id ~client:r.client
          [
            ("result", result_json c);
            ("stats", c.Pipeline.stats);
            ( "exec",
              Json.Obj
                [
                  ("mode", Json.Str mode_used);
                  ("degraded", Json.Bool degraded);
                ] );
          ])
    | Protocol.Compile { src; config } ->
      compile_family ~src ~config (fun c ->
          [ ("il", Json.Str c.Pipeline.il); ("stats", c.Pipeline.stats) ])
    | Protocol.Stats { src; config } ->
      compile_family ~src ~config (fun c ->
          [ ("stats", c.Pipeline.stats) ])
    | Protocol.Fuzz { seed; trials } -> (
      let key = Protocol.fuzz_key ~seed ~trials in
      match Cas.get st.cas ~key ~kind:"fuzz" with
      | Some raw -> Protocol.ok ~id:r.id ~client:r.client
          [ ("fuzz", Json.parse raw) ]
      | None ->
        let agreed = ref 0 and diverged = ref 0 in
        let rejected = ref 0 and inconclusive = ref 0 in
        let stop_now () =
          raise
            (Rp_exec.Interp.Resource_limit "external stop during fuzz batch")
        in
        for t = 0 to trials - 1 do
          if should_stop () then stop_now ();
          let src = Rp_fuzz.Gen.program_of_seed ~seed ~trial:t in
          match Rp_fuzz.Difforacle.check ~should_stop src with
          | Rp_fuzz.Difforacle.Agree _ -> incr agreed
          | Rp_fuzz.Difforacle.Rejected _ -> incr rejected
          | Rp_fuzz.Difforacle.Inconclusive _ -> incr inconclusive
          | Rp_fuzz.Difforacle.Diverged _ -> incr diverged
        done;
        (* a deadline can surface as Inconclusive instead of an abort;
           never cache a batch the deadline touched *)
        if should_stop () then stop_now ();
        let summary =
          Json.Obj
            [
              ("seed", Json.Int seed);
              ("trials", Json.Int trials);
              ("agreed", Json.Int !agreed);
              ("diverged", Json.Int !diverged);
              ("rejected", Json.Int !rejected);
              ("inconclusive", Json.Int !inconclusive);
            ]
        in
        Cas.put st.cas ~key ~kind:"fuzz"
          (Json.to_string ~indent:false summary);
        Protocol.ok ~id:r.id ~client:r.client [ ("fuzz", summary) ])
  with
  | Rp_exec.Interp.Resource_limit m when Rp_exec.Interp.is_external_stop m ->
    raise (Rp_exec.Interp.Resource_limit m)
  | Rp_exec.Interp.Error m -> err "trap" m
  | Rp_exec.Interp.Resource_limit m -> err "resource" m
  | Rp_minic.Srcloc.Error (loc, msg) ->
    err "usage" (Rp_minic.Srcloc.to_string (loc, msg))
  | Failure m -> err "usage" m
  | Stack_overflow -> err "internal" "Stack_overflow"
  | Out_of_memory -> raise Out_of_memory
  | e -> err "internal" (Printexc.to_string e)

(** One pool job: {!handle_op} under the client's circuit.  Only
    escaping exceptions (external stops) count as breaker failures —
    gracefully answered traps and usage errors are the service working
    as intended. *)
let job ~should_stop st (r : Protocol.request) : Json.t =
  match
    Breaker.call st.breaker ~key:r.client (fun () ->
        handle_op ~should_stop st r)
  with
  | Ok resp -> resp
  | Error (Breaker.Open_circuit key) ->
    Protocol.rejected ~id:r.id ~client:r.client
      (Printf.sprintf "circuit open for client %s; back off" key)
  | Error e -> raise e

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)
(* ------------------------------------------------------------------ *)

let health_json st ~id ~client =
  Protocol.ok ~id ~client
    [
      ( "health",
        Json.Obj
          [
            ("pid", Json.Int (Unix.getpid ()));
            ( "shard_id",
              match st.cfg.shard_id with
              | Some i -> Json.Int i
              | None -> Json.Null );
            ( "uptime_s",
              Json.Float
                (Float.round (Rp_support.Clock.elapsed st.started *. 1e3)
                /. 1e3) );
            ("pass_version", Json.Str Pipeline.pass_version);
            (* probed once per process (memoized in find_cc, persisted
               via the CAS identity cache); [null]/[null] when there is
               no system compiler, so clients can pre-degrade instead of
               submitting native jobs that will ladder down *)
            ( "cc",
              match native_cc st with
              | Some cc -> Json.Str cc.Rp_backend.Native.identity
              | None -> Json.Null );
            ( "native",
              match native_cc st with
              | Some _ -> Json.Bool true
              | None -> Json.Null );
            ("served", Json.Int st.served);
            ("errors", Json.Int st.errors);
            ("overloaded", Json.Int st.overloaded);
            ("rejected", Json.Int st.rejected);
            ("jobs", Json.Int st.cfg.jobs);
            ("queue_bound", Json.Int st.cfg.queue_bound);
            ("cache", Cas.stats_json st.cas);
            ( "resilience",
              Resilience.to_json
                ~breakers:(Breaker.snapshots_json st.breaker)
                st.resil );
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

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

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

let handle_connection st cfd =
  (* a client that connects and then stalls must not wedge the daemon *)
  Unix.setsockopt_float cfd Unix.SO_RCVTIMEO 30.;
  let ic = Unix.in_channel_of_descr cfd in
  let oc = Unix.out_channel_of_descr cfd in
  let lines = read_lines ic in
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
            if !n_admitted >= st.cfg.queue_bound then
              Immediate (Protocol.overloaded ~id ~client)
            else begin
              (* journaled before execution: a crash mid-compute leaves a
                 recv with no done — reported as lost_inflight on restart *)
              journal_event st ~ev:"recv" r [];
              admitted := r :: !admitted;
              incr n_admitted;
              Job_slot (!n_admitted - 1)
            end))
      lines
  in
  let jobs_arr = Array.of_list (List.rev !admitted) in
  let outcomes =
    if Array.length jobs_arr = 0 then [||]
    else
      Pool.run_supervised ~jobs:st.cfg.jobs ?timeout:st.cfg.job_timeout
        ~retries:st.cfg.retries ~resilience:st.resil
        (fun ~should_stop r -> job ~should_stop st r)
        jobs_arr
  in
  let job_response i =
    let r = jobs_arr.(i) in
    let resp =
      match outcomes.(i) with
      | Ok resp -> resp
      | Error (Pool.Timed_out { elapsed; attempts }) ->
        Protocol.error ~id:r.Protocol.id ~client:r.Protocol.client
          ~code:"resource"
          (Printf.sprintf "job timed out after %.1f s (%d attempts)" elapsed
             attempts)
      | Error (Pool.Crashed { reason; attempts }) ->
        Protocol.error ~id:r.Protocol.id ~client:r.Protocol.client
          ~code:"internal"
          (Printf.sprintf "job crashed after %d attempts: %s" attempts reason)
    in
    journal_event st ~ev:"done" r
      [ ("resp", Json.Str (Protocol.response_status resp)) ];
    resp
  in
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
      | "rejected" -> st.rejected <- st.rejected + 1
      | _ -> ());
      output_string oc (Json.to_string ~indent:false resp);
      output_char oc '\n')
    slots;
  flush oc

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

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let serve (cfg : config) =
  (* the journal needs state_dir even when the CAS lives elsewhere
     (fleet shards share one store but keep private journals) *)
  mkdir_p cfg.state_dir;
  let cas_dir =
    Option.value cfg.cas_dir
      ~default:(Filename.concat cfg.state_dir "cas")
  in
  let cas = Cas.open_ cas_dir in
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
      resil = Resilience.create ();
      breaker =
        Breaker.create ~threshold:cfg.breaker_threshold
          ~cooldown:cfg.breaker_cooldown ();
      jsum;
      started = Rp_support.Clock.now ();
      served = 0;
      errors = 0;
      overloaded = 0;
      rejected = 0;
    }
  in
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  remove_stale_socket cfg.socket;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen lfd 64;
  Printf.printf "rpcc-serve listening on %s (pid %d)\n%!" cfg.socket
    (Unix.getpid ());
  while not (Atomic.get stop) do
    match Unix.select [ lfd ] [] [] 0.2 with
    | ([ _ ], _, _) ->
      let (cfd, _) = Unix.accept lfd in
      (* one bad connection (stalled reader, dead peer, junk bytes) must
         never take the daemon down *)
      (try handle_connection st cfd with
      | Sys_error _ | Unix.Unix_error _ | End_of_file -> ());
      (try Unix.close cfd with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* graceful drain: the in-flight batch above has been answered; stop
     accepting, release the socket name, seal the journal *)
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  Journal.close st.journal
