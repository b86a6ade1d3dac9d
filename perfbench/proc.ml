(** Child processes, timed from outside on the monotonic clock, with
    their peak resident memory from [wait4]. *)

external wait4 : int -> bool -> int * int * int * int = "perfbench_wait4"

type exit = Exited of int | Signaled of int

type finished = { wall_ns : int; status : exit; maxrss_kb : int }

let ok f = f.status = Exited 0

(** The current environment with [TMPDIR] replaced. *)
let env_with_tmpdir tmp =
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
          (Array.to_list (Unix.environment ()))))
    [| "TMPDIR=" ^ tmp |]

(** Start [argv] in directory [cwd] with [env]; stdout and stderr go to
    [log].  The spawn happens with this process's cwd switched to [cwd],
    which the child inherits. *)
let spawn ~cwd ~env ~log argv =
  let fd =
    Unix.openfile log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let here = Sys.getcwd () in
  Unix.chdir cwd;
  Fun.protect
    ~finally:(fun () ->
      Unix.chdir here;
      Unix.close fd)
    (fun () -> Unix.create_process_env argv.(0) argv env Unix.stdin fd fd)

let decode (_, kind, code, rss) =
  ((if kind = 1 then Signaled code else Exited code), rss)

(** Block until [pid] ends. *)
let wait pid = decode (wait4 pid false)

(** SIGTERM, then SIGKILL if the process has not ended within [grace]
    seconds; reaps it either way. *)
let stop ?(grace = 10.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Span.now_ns () + int_of_float (grace *. 1e9) in
  let rec poll () =
    match wait4 pid true with
    | (0, _, _, _) when Span.now_ns () < deadline ->
      Unix.sleepf 0.005;
      poll ()
    | (0, _, _, _) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      wait pid
    | r -> decode r
  in
  poll ()

(** Run to completion; the wall time spans spawn to reap.  If waiting is
    interrupted (SIGTERM or SIGINT raise in this process), the child is
    stopped before the exception goes on. *)
let run ~cwd ~env ~log argv =
  let t0 = Span.now_ns () in
  let pid = spawn ~cwd ~env ~log argv in
  let status, maxrss_kb =
    try wait pid
    with e ->
      ignore (stop pid);
      raise e
  in
  { wall_ns = Span.now_ns () - t0; status; maxrss_kb }

(** First line of a shell command's output ([""] when it prints none). *)
let capture cmd =
  let ic = Unix.open_process_in cmd in
  let line = try input_line ic with End_of_file -> "" in
  (try while true do ignore (input_line ic) done with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  line

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
