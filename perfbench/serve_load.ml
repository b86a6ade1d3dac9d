(** The [serve] workload: [rpcc serve] with its defaults apart from a
    private socket and state directory, driven by a closed loop of two
    connections from one single-threaded load generator that multiplexes
    them with [select] (a generator on two domains or threads adds its
    own scheduling noise).  Each connection carries one interp [run]
    request, as [rpcc client run] does. *)

module Json = Rp_support.Json
module Config = Rp_driver.Config
module Pipeline = Rp_driver.Pipeline

let connections = 2

(** Requests per session: a fixed prefix of the seeded sequence, so a
    faster host or change serves the same mix of first touches and
    repeats (about a quarter are first touches).  1,500 leaves p99
    fifteen samples beyond it. *)
let requests = 1500

(** Sessions per run, each on a fresh daemon with the same traffic: a
    fixed number for a given [--seconds].  A session takes about 6 s on
    the reference host; the nominal 10 s keeps a run within the
    benchmark's time budget when the host is slow. *)
let sessions ~seconds = max 1 (int_of_float (Float.ceil (seconds /. 10.)))

type daemon = { pid : int; socket : string; ready_ms : float }

(* daemons not yet stopped, so an aborted run can still stop them *)
let live : daemon list ref = ref []

(** Start a daemon in [dir] and wait until it accepts connections. *)
let start_daemon (ctx : Ctx.t) ~dir =
  let t0 = Span.now_ns () in
  let pid =
    Proc.spawn ~cwd:dir
      ~env:(Proc.env_with_tmpdir (Ctx.abs dir))
      ~log:(Filename.concat dir "daemon.log")
      [| ctx.rpcc; "serve"; "--socket"; "d.sock"; "--state-dir"; "state" |]
  in
  (* the socket path is relative to the checkout root: absolute paths
     of deep checkouts can exceed the 108-byte sun_path limit *)
  let socket = Filename.concat dir "d.sock" in
  let deadline = t0 + 60_000_000_000 in
  let rec poll () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Span.now_ns () > deadline then begin
        ignore (Proc.stop pid);
        failwith "rpcc serve did not become ready within 60 s"
      end;
      Unix.sleepf 0.001;
      poll ()
  in
  poll ();
  let d = { pid; socket; ready_ms = Ctx.ms_of_ns (Span.now_ns () - t0) } in
  live := d :: !live;
  d

(** Peak resident memory of the daemon, in MB, once it has exited. *)
let stop_daemon d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  let _, rss_kb = Proc.stop d.pid in
  float_of_int rss_kb /. 1024.

type traffic = {
  gen : Traffic.t;
  srcs : string array;
  answers : (string * int) array;  (** [O0] output and checksum *)
}

(** Generate the seeded pool and its reference answers, computed
    in-process under [O0]. *)
let traffic ~seed =
  let srcs = Array.init Traffic.pool_size (Traffic.source ~seed) in
  let answers =
    Array.map
      (fun src ->
        let _, _, r = Pipeline.compile_and_run ~config:Config.o0 src in
        (r.Rp_exec.Interp.output, r.Rp_exec.Interp.checksum))
      srcs
  in
  { gen = Traffic.make ~seed; srcs; answers }

type sample = {
  item : Traffic.item;
  first_touch : bool;
  latency_ms : float;
  ok : bool;
}

(** Drive the closed loop: keep [connections] requests in flight until
    the first [requests] of the seeded sequence have been answered.
    Returns the samples in completion order and the session's wall
    time. *)
let session ~socket ~(traffic : traffic) ~requests =
  let seen = Hashtbl.create 1024 in
  let issued = ref 0 in
  let t0 = Span.now_ns () in
  let enough () = !issued >= requests in
  let samples = ref [] in
  let open_request () =
    let it = Traffic.next traffic.gen in
    let id = !issued in
    incr issued;
    let first_touch = not (Hashtbl.mem seen it) in
    Hashtbl.replace seen it ();
    let line =
      Traffic.request_line ~id ~src:traffic.srcs.(it.prog) ~config:it.config
      ^ "\n"
    in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let start = Span.now_ns () in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    let n = String.length line in
    let rec send off =
      if off < n then send (off + Unix.write_substring fd line off (n - off))
    in
    send 0;
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    (fd, (it, first_touch, start, Buffer.create 4096))
  in
  let active = ref [] in
  let refill () =
    while List.length !active < connections && not (enough ()) do
      active := open_request () :: !active
    done
  in
  refill ();
  let chunk = Bytes.create 65536 in
  while !active <> [] do
    let ready =
      match Unix.select (List.map fst !active) [] [] 120. with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if ready = [] && !active <> [] then
      failwith "rpcc serve answered nothing for 120 s";
    List.iter
      (fun fd ->
        let it, first_touch, start, buf = List.assq fd !active in
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then Buffer.add_subbytes buf chunk 0 n
        else begin
          let latency_ms = Ctx.ms_of_ns (Span.now_ns () - start) in
          Unix.close fd;
          active := List.filter (fun (f, _) -> f != fd) !active;
          let output, checksum = traffic.answers.(it.Traffic.prog) in
          let ok =
            match String.split_on_char '\n' (Buffer.contents buf) with
            | [ line; "" ] -> (
              match Json.parse line with
              | resp -> Check.answer_ok ~output ~checksum resp
              | exception Json.Parse_error _ -> false)
            | _ -> false
          in
          samples := { item = it; first_touch; latency_ms; ok } :: !samples
        end)
      ready;
    refill ()
  done;
  (List.rev !samples, Ctx.ms_of_ns (Span.now_ns () - t0))

let latencies pred samples =
  Array.of_list
    (List.filter_map
       (fun s -> if pred s then Some s.latency_ms else None)
       samples)

let median_or_zero xs = if Array.length xs = 0 then 0. else Stats.median xs
