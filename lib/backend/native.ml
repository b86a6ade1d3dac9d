(** The native runner: cc invocation, binary cache, trailer decoding.

    Failure discipline: everything that is not a faithful program outcome
    raises {!Error}.  In particular the runner re-verifies what it can —
    the captured stdout length against the trailer's [outlen], and the
    FNV-1a checksum recomputed over the captured bytes against the
    trailer's compiled-in checksum — so a binary that died mid-write, a
    truncated trailer, or a corrupted cache entry quarantines instead of
    producing a subtly wrong result. *)

open Rp_exec

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type cc = { path : string; flags : string list; identity : string }

let read_first_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (input_line ic) with End_of_file -> None in
    let status = Unix.close_process_in ic in
    match (status, line) with
    | Unix.WEXITED 0, Some l when String.trim l <> "" -> Some (String.trim l)
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

(* One probe per process: a fork+exec of about a millisecond.  A
   negative result memoizes too — a missing cc stays missing for the
   life of the process.  A mutex rather than a [Lazy], which raises when
   two domains force it at once. *)
let cc_identity : string option option ref = ref None
let cc_lock = Mutex.create ()

let find_cc ?cache:_ ?(flags = [ "-O1" ]) () =
  let identity =
    Mutex.protect cc_lock (fun () ->
        match !cc_identity with
        | Some id -> id
        | None ->
          let id = read_first_line "cc --version 2>/dev/null" in
          cc_identity := Some id;
          id)
  in
  Option.map (fun identity -> { path = "cc"; flags; identity }) identity

(* The store holds binaries this process will exec, so its root is this
   user's alone: created 0700, and refused when someone else could have
   planted an object in it. *)
let default_cache_dir () =
  let uid = Unix.getuid () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rpcc-native-cas-%d" uid)
  in
  let refuse why = error "binary store %s %s" dir why in
  match
    Rp_support.Cas.mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Unix.lstat dir
  with
  | exception Unix.Unix_error (e, _, _) ->
    refuse ("cannot be opened: " ^ Unix.error_message e)
  | { st_kind = S_LNK; _ } -> refuse "is a symbolic link"
  | { st_kind = S_DIR; st_uid; st_perm; _ } ->
    if st_uid <> uid then refuse "is owned by another user"
    else if st_perm land 0o022 <> 0 then refuse "is writable by other users"
    else dir
  | _ -> refuse "is not a directory"

(* ------------------------------------------------------------------ *)
(* Trailer                                                             *)
(* ------------------------------------------------------------------ *)

type trailer = {
  status :
    [ `Ok | `Trap of string | `Limit of Interp.limit | `Invalid of string ];
  ret : Value.t;
  checksum : int;
  ops : int;
  loads : int;
  stores : int;
  outlen : int;
  elapsed_ns : int;
  funcs : (string * Interp.counts) list;
}

let magic = "rpcc-native/1"

let parse_trailer (s : string) : trailer =
  let fail fmt = Printf.ksprintf (fun m -> error "native trailer: %s" m) fmt in
  let int_of x =
    match int_of_string_opt x with
    | Some n -> n
    | None -> fail "bad integer %S" x
  in
  let lines = String.split_on_char '\n' s in
  let status = ref None
  and msg = ref ""
  and ret = ref None
  and checksum = ref None
  and ops = ref None
  and loads = ref None
  and stores = ref None
  and outlen = ref None
  and elapsed = ref None
  and funcs = ref []
  and ended = ref false in
  let rest_after line prefix =
    String.sub line (String.length prefix)
      (String.length line - String.length prefix)
  in
  let parse_line line =
    match String.split_on_char ' ' line with
    | [ "status"; "ok" ] -> status := Some `Ok
    | [ "status"; "trap" ] -> status := Some `Trap
    | [ "status"; "invalid" ] -> status := Some `Invalid
    | [ "status"; "limit"; kind; n ] ->
      let n = int_of n in
      status :=
        Some
          (`Limit
            (match kind with
            | "fuel" -> Interp.Fuel n
            | "depth" -> Interp.Depth n
            | "stop" -> Interp.Stopped n
            | _ -> fail "unknown limit %S" kind))
    | "msg" :: _ -> msg := rest_after line "msg "
    | [ "ret"; "undef" ] -> ret := Some Value.Vundef
    | [ "ret"; "int"; n ] -> ret := Some (Value.Vint (int_of n))
    | [ "ret"; "flt"; h ] ->
      let bits =
        try Int64.of_string ("0x" ^ h)
        with Failure _ -> fail "bad float bits %S" h
      in
      ret := Some (Value.Vflt (Int64.float_of_bits bits))
    | [ "ret"; "ptr"; b; o ] ->
      ret := Some (Value.Vptr (int_of b, int_of o))
    | "ret" :: "fun" :: _ -> ret := Some (Value.Vfun (rest_after line "ret fun "))
    | [ "checksum"; n ] -> checksum := Some (int_of n)
    | [ "ops"; n ] -> ops := Some (int_of n)
    | [ "loads"; n ] -> loads := Some (int_of n)
    | [ "stores"; n ] -> stores := Some (int_of n)
    | [ "outlen"; n ] -> outlen := Some (int_of n)
    | [ "elapsed_ns"; n ] -> elapsed := Some (int_of n)
    | "func" :: o :: l :: st :: name_words ->
      let name = String.concat " " name_words in
      funcs :=
        ( name,
          { Interp.ops = int_of o; loads = int_of l; stores = int_of st } )
        :: !funcs
    | _ -> fail "unrecognized line %S" line
  in
  (match lines with
  | m :: rest when m = magic ->
    let rec go = function
      | [] -> ()
      | "end" :: _ -> ended := true
      | line :: tl ->
        parse_line line;
        go tl
    in
    go rest
  | m :: _ -> fail "bad magic %S" m
  | [] -> fail "empty");
  if not !ended then fail "missing end marker (truncated)";
  let req name = function Some v -> v | None -> fail "missing %s" name in
  let status =
    match req "status" !status with
    | (`Ok | `Limit _) as st -> st
    | `Trap -> `Trap !msg
    | `Invalid -> `Invalid !msg
  in
  let ret =
    match (status, !ret) with
    | `Ok, Some r -> r
    | `Ok, None -> fail "missing ret"
    | _, _ -> Value.Vundef
  in
  {
    status;
    ret;
    checksum = req "checksum" !checksum;
    ops = req "ops" !ops;
    loads = req "loads" !loads;
    stores = req "stores" !stores;
    outlen = req "outlen" !outlen;
    elapsed_ns = req "elapsed_ns" !elapsed;
    funcs = List.rev !funcs;
  }

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* O_CLOEXEC matters: another domain's concurrent fork (a cc invocation,
   a sibling binary) must not inherit a write fd to a file this domain is
   about to exec, or the exec fails with ETXTBSY. *)
let write_file path s =
  let fd =
    Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o600
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.unsafe_of_string s in
      let n = Bytes.length b in
      let rec go off =
        if off < n then go (off + Unix.write fd b off (n - off))
      in
      go 0)

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

let with_temp suffix f =
  let path = Filename.temp_file "rpcc_native" suffix in
  Fun.protect ~finally:(fun () -> remove_noerr path) (fun () -> f path)

(* [Unix.WSIGNALED] carries OCaml's number for a signal it knows (SIGKILL
   is -7), all named here, and the system's for any other. *)
let signal_name n =
  Sys.
    [
      (sigabrt, "SIGABRT"); (sigalrm, "SIGALRM"); (sigbus, "SIGBUS");
      (sigchld, "SIGCHLD"); (sigcont, "SIGCONT"); (sigfpe, "SIGFPE");
      (sighup, "SIGHUP"); (sigill, "SIGILL"); (sigint, "SIGINT");
      (sigkill, "SIGKILL"); (sigpipe, "SIGPIPE"); (sigpoll, "SIGPOLL");
      (sigprof, "SIGPROF"); (sigquit, "SIGQUIT"); (sigsegv, "SIGSEGV");
      (sigstop, "SIGSTOP"); (sigsys, "SIGSYS"); (sigterm, "SIGTERM");
      (sigtrap, "SIGTRAP"); (sigtstp, "SIGTSTP"); (sigttin, "SIGTTIN");
      (sigttou, "SIGTTOU"); (sigurg, "SIGURG"); (sigusr1, "SIGUSR1");
      (sigusr2, "SIGUSR2"); (sigvtalrm, "SIGVTALRM"); (sigxcpu, "SIGXCPU");
      (sigxfsz, "SIGXFSZ");
    ]
  |> List.assoc_opt n
  |> Option.value ~default:(Printf.sprintf "signal %d" n)

let truncate_err err =
  let err = String.trim err in
  if String.length err > 800 then String.sub err 0 800 ^ "..." else err

(* The one way this module runs a child: cc through its rlimit shell, or
   a compiled binary.  The child's stdout lands in a private temp file
   (not a pipe, whose write end a sibling domain's fork could hold open)
   and is returned when it exits 0; any other end raises {!Error} naming
   [what].  The file is closed before the wait and removed on every
   path.  Only the spawn errors a concurrent fork causes transiently are
   retried, at most 100 times 10 ms apart: ETXTBSY ([EUNKNOWNERR 26]:
   OCaml's [Unix.error] has no constructor for it), when another domain's
   child briefly holds an inherited write fd to the binary, and EAGAIN,
   when fork is short of resources.  With [~wall_s] the child is polled
   every 20 ms and SIGKILLed past that deadline (an {!Error}) or once
   [should_stop] turns true, which raises [Interp.Resource_limit
   (Stopped 0)]: the program ran no operation.  With [~group] it starts
   in a process group of its own (through setsid, which execs in place:
   the pid is the group's id), SIGKILLed whole whenever the child
   ends. *)
let spawn_and_wait ~what ?(wall_s = infinity) ?(group = false)
    ?(should_stop = fun () -> false) argv =
  with_temp ".out" @@ fun out ->
  let argv = if group then Array.append [| "/usr/bin/setsid" |] argv else argv
  in
  let pid =
    let fd = Unix.openfile out [ O_WRONLY; O_CLOEXEC ] 0o600 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let rec spawn attempts =
          try Unix.create_process argv.(0) argv Unix.stdin fd Unix.stderr
          with
          | Unix.Unix_error ((Unix.EUNKNOWNERR 26 | Unix.EAGAIN), _, _)
            when attempts > 1 ->
            Unix.sleepf 0.01;
            spawn (attempts - 1)
        in
        spawn 100)
  in
  let kill target =
    try Unix.kill target Sys.sigkill with Unix.Unix_error _ -> ()
  in
  let deadline = Rp_support.Clock.now () +. wall_s in
  let rec wait flags =
    match Unix.waitpid flags pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait flags
    | 0, _ when should_stop () ->
      kill pid;
      ignore (wait []);
      raise (Interp.Resource_limit (Interp.Stopped 0))
    | 0, _ when Rp_support.Clock.now () > deadline ->
      kill pid;
      ignore (wait []);
      error "%s killed past its %.0f s wall-clock deadline" what wall_s
    | 0, _ ->
      Unix.sleepf 0.02;
      wait flags
    | _, st -> st
  in
  let st =
    Fun.protect
      ~finally:(fun () -> if group then kill (-pid))
      (fun () -> wait (if wall_s = infinity then [] else [ Unix.WNOHANG ]))
  in
  let output = read_file out in
  match st with
  | Unix.WEXITED 0 -> output
  | Unix.WEXITED n ->
    error "%s exited with status %d: %s" what n (truncate_err output)
  | Unix.WSIGNALED n ->
    error "%s killed by %s: %s" what (signal_name n) (truncate_err output)
  | Unix.WSTOPPED n ->
    error "%s stopped by %s: %s" what (signal_name n) (truncate_err output)

(* Every system error on the way to an answer (a temp directory that is
   gone, a store that cannot be written, a binary the kernel will not
   exec) is an infrastructure failure, the ladder's to handle. *)
let guard f =
  try f () with
  | Unix.Unix_error (e, fn, arg) ->
    error "%s %s: %s" fn arg (Unix.error_message e)
  | Sys_error m -> error "%s" m
  | End_of_file -> error "unexpected end of file"

(* ------------------------------------------------------------------ *)
(* Compile                                                             *)
(* ------------------------------------------------------------------ *)

(* cc is the one subprocess we do not write, so it runs boxed: a wedged
   or runaway compiler must degrade this one cell, never take the
   harness down with it.  OCaml's Unix has no setrlimit, so the rlimits
   (60 s CPU, 4 GiB address space, 512 MiB output) ride a [/bin/sh -c
   "ulimit ...; exec cc ..."] wrapper ([exec] keeps the limited pid the
   compiler itself), and the harness kills it past 120 s of wall time.
   The wrapper runs in a process group of its own, killed with it, so
   the compiler's own children (cc1, as, ld) die with it too. *)
let cc_compile ?should_stop ~cc csrc bin =
  with_temp ".c" @@ fun cfile ->
  write_file cfile csrc;
  let cmd =
    Printf.sprintf
      "ulimit -t 60 2>/dev/null; ulimit -v 4194304 2>/dev/null; ulimit -f \
       1048576 2>/dev/null; exec %s %s -o %s %s -lm 2>&1"
      (Filename.quote cc.path)
      (String.concat " " (List.map Filename.quote cc.flags))
      (Filename.quote bin) (Filename.quote cfile)
  in
  ignore
    (spawn_and_wait ~what:"cc" ~wall_s:120. ~group:true ?should_stop
       [| "/bin/sh"; "-c"; cmd |])

(* An executable temp file filled by [fill]; removed if anything fails,
   the caller's to remove otherwise. *)
let fresh_bin fill =
  let bin = Filename.temp_file "rpcc_native" ".bin" in
  match
    fill bin;
    Unix.chmod bin 0o700
  with
  | () -> bin
  | exception e ->
    remove_noerr bin;
    raise e

(* A binary is keyed by exactly what cc compiles.  Configs whose
   analyses agree emit the same C and share one binary, and a pass change
   that alters the code alters the key by itself: no version bump has to
   remember the store. *)
let bin_key ~cc csrc =
  Rp_support.Cas.key
    [ Cgen.version; csrc; cc.identity; String.concat " " cc.flags ]

(* Single flight: at most one domain per (store, binary key) runs between
   the store read and the put, so concurrent cells that emit the same C
   run cc once and the rest read the store.  The claim is released on
   every exit, a failed compile included: a waiter whose leader failed
   reads a miss and compiles for itself. *)
let claims : (string * string, unit) Hashtbl.t = Hashtbl.create 16
let claims_lock = Mutex.create ()
let claim_released = Condition.create ()

let with_claim id f =
  Mutex.protect claims_lock (fun () ->
      while Hashtbl.mem claims id do
        Condition.wait claim_released claims_lock
      done;
      Hashtbl.replace claims id ());
  Fun.protect f ~finally:(fun () ->
      Mutex.protect claims_lock (fun () ->
          Hashtbl.remove claims id;
          Condition.broadcast claim_released))

let compile ?cache ?key:_ ?should_stop ~cc prog =
  let csrc = Cgen.emit prog in
  guard @@ fun () ->
  match cache with
  | None -> (fresh_bin (cc_compile ?should_stop ~cc csrc), false)
  | Some cas ->
    let k = bin_key ~cc csrc in
    with_claim (Rp_support.Cas.root cas, k) (fun () ->
        match Rp_support.Cas.get cas ~key:k ~kind:"native-bin" with
        | Some bytes -> (fresh_bin (fun bin -> write_file bin bytes), true)
        | None ->
          ( fresh_bin (fun bin ->
                cc_compile ?should_stop ~cc csrc bin;
                Rp_support.Cas.put cas ~key:k ~kind:"native-bin"
                  (read_file bin)),
            false ))

(* ------------------------------------------------------------------ *)
(* Execute                                                             *)
(* ------------------------------------------------------------------ *)

let fnv_byte cs b = (cs lxor b) * 16777619 land 0x3FFFFFFFFFFFFFF

let checksum_of_string s =
  String.fold_left (fun cs c -> fnv_byte cs (Char.code c)) 0x1505 s

(* Returns the result plus the binary's self-timed [main] duration in ms
   (from the trailer's [elapsed_ns]) — the native analogue of interpreter
   run time, excluding fork/exec/loader overhead the harness pays. *)
let exec_bin_elapsed ?(fuel = 400_000_000) ?(max_depth = 100_000) ?deadline
    bin : Interp.result * float =
  guard @@ fun () ->
  with_temp ".trailer" @@ fun trailer_path ->
  (* the binary reads a budget of 0 as no deadline; [%.17g] keeps every
     positive one positive.  It raises its own stack limit (deep
     recursion runs on the C stack), so no shell wrapper: exec it
     directly *)
  let budget = Option.value deadline ~default:0. in
  let output =
    spawn_and_wait ~what:"native binary"
      [|
        bin;
        trailer_path;
        string_of_int fuel;
        string_of_int max_depth;
        Printf.sprintf "%.17g" budget;
      |]
  in
  let t = parse_trailer (read_file trailer_path) in
  if t.outlen <> String.length output then
    error "native output truncated: trailer says %d bytes, captured %d"
      t.outlen (String.length output);
  match t.status with
  | `Trap m -> raise (Interp.Error m)
  | `Limit l -> raise (Interp.Resource_limit l)
  | `Invalid m -> raise (Invalid_argument m)
  | `Ok ->
    if checksum_of_string output <> t.checksum then
      error
        "native checksum mismatch: trailer %d vs %d recomputed over captured \
         output"
        t.checksum
        (checksum_of_string output);
    let total = { Interp.ops = t.ops; loads = t.loads; stores = t.stores } in
    let per_func =
      t.funcs
      |> List.filter (fun (_, (c : Interp.counts)) -> c.Interp.ops <> 0)
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    ( { Interp.ret = t.ret; output; checksum = t.checksum; total; per_func },
      float_of_int t.elapsed_ns /. 1e6 )

let exec_bin ?fuel ?max_depth ?deadline bin =
  fst (exec_bin_elapsed ?fuel ?max_depth ?deadline bin)

type timed = {
  result : Interp.result;
  cc_ms : float;
  exec_ms : float;
  cache_hit : bool;
}

let run_timed ?fuel ?max_depth ?deadline ?cache ?key:_ ?should_stop ~cc prog
    =
  let t0 = Rp_support.Clock.now () in
  let bin, cache_hit = compile ?cache ?should_stop ~cc prog in
  let cc_ms = 1000. *. Rp_support.Clock.elapsed t0 in
  Fun.protect
    ~finally:(fun () -> remove_noerr bin)
    (fun () ->
      let result, exec_ms = exec_bin_elapsed ?fuel ?max_depth ?deadline bin in
      { result; cc_ms; exec_ms; cache_hit })

let run ?fuel ?max_depth ?deadline ?cache ?should_stop ~cc prog =
  (run_timed ?fuel ?max_depth ?deadline ?cache ?should_stop ~cc prog).result

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

(* native → interpreter, both under the same limits.  Only {!Error},
   infrastructure failure, descends; faithful program outcomes
   ([Interp.Error], [Resource_limit] a stop request included,
   [Invalid_argument]) re-raise from whichever rung produced them,
   because both compute the same answer by contract.  The result is
   therefore independent of the rung; only the rung and the latency
   differ.  A failed native attempt is not retried: a deterministic cc
   cannot fix its own failure. *)
let run_laddered ?fuel ?max_depth ?deadline ?cache ?should_stop ~cc prog =
  let native cc =
    run_timed ?fuel ?max_depth ?deadline ?cache ?should_stop ~cc prog
  in
  match Option.map native cc with
  | Some t -> (`Native, t)
  | None | (exception Error _) ->
    let t0 = Rp_support.Clock.now () in
    let result = Interp.run ?fuel ?max_depth ?should_stop ?deadline prog in
    let exec_ms = 1000. *. Rp_support.Clock.elapsed t0 in
    (`Interp, { result; cc_ms = 0.; exec_ms; cache_hit = false })
