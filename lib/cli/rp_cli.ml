(** Shared command-line conventions.  See rp_cli.mli. *)

open Cmdliner

let usage msg =
  prerr_endline ("usage: " ^ msg);
  exit 2

let positive ~flag n =
  if n < 1 then usage (Printf.sprintf "%s must be >= 1" flag) else n

let jobs = function
  | None -> 1
  | Some n when n < 0 -> usage "--jobs must be >= 0 (0 = auto)"
  | Some 0 -> Rp_support.Pool.recommended_jobs ()
  | Some n -> n

let retries = function
  | None -> 1
  | Some n when n < 0 -> usage "--retries must be >= 0"
  | Some n -> n

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run jobs on $(docv) worker domains (default 1; 0 = the \
           machine's recommended count).  Reports, documents, and exit \
           codes are identical at every $(docv); only wall-clock time \
           changes.")

let job_timeout_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "job-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-job wall-clock deadline (a job is one trial or one grid \
           cell).  A job over the deadline is aborted (cooperatively when \
           it is interpreting; by abandoning and replacing its worker \
           domain when it is wedged), retried per $(b,--retries), then \
           quarantined.")

let retries_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts for a job that times out or crashes before it \
           is quarantined (default 1).")

let journal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append one fsynced line-JSON record per finished job to \
           $(docv), so an interrupted or killed campaign can be resumed \
           with $(b,--resume) without losing completed work.")

let resume_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Replay the finished jobs recorded in a previous campaign's \
           journal instead of re-running them, then run only the \
           remainder.  The result is byte-identical to an uninterrupted \
           run.  Combine with $(b,--journal) $(docv) to keep extending \
           the same journal.")

let cancel = Atomic.make false
let interrupted () = Atomic.get cancel

let with_sigint f =
  let previous =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set cancel true))
  in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint previous) f

let exit_interrupted ~progress ~journal =
  Fmt.epr "interrupted after %s%s@." progress
    (match journal with
    | Some p -> Printf.sprintf "; resume with --resume %s" p
    | None -> " (no --journal, completed work is lost)");
  exit 130
