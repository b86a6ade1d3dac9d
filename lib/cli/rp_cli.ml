(** Shared command-line conventions and the campaign runner.  See
    rp_cli.mli. *)

open Cmdliner
module Json = Rp_support.Json
module Journal = Rp_support.Journal
module Pool = Rp_support.Pool

let usage msg =
  prerr_endline ("usage: " ^ msg);
  exit 2

let positive ?(min = 1) ~flag n =
  if n < min then usage (Printf.sprintf "%s must be >= %d" flag min) else n

let jobs = function
  | None -> 1
  | Some n when n < 0 -> usage "--jobs must be >= 0 (0 = auto)"
  | Some 0 -> Pool.recommended_jobs ()
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

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

type campaign = {
  jobs : int option;
  job_timeout : float option;
  journal : string option;
}

let campaign_t =
  let opt c name docv doc =
    Arg.(value & opt (some c) None & info [ name ] ~docv ~doc)
  in
  let make jobs job_timeout journal = { jobs; job_timeout; journal } in
  Term.(
    const make $ jobs_t
    $ opt Arg.float "job-timeout" "SECONDS"
        "Per-job wall-clock deadline (a job is one trial or one grid \
         cell).  A job over the deadline is aborted (cooperatively when \
         it is interpreting; by abandoning and replacing its worker \
         domain when it is wedged) and quarantined: it runs once."
    $ opt Arg.string "journal" "FILE"
        "Replay the finished jobs $(docv) already records instead of \
         re-running them, run the rest, and append one fsynced line-JSON \
         record per finished job, so a campaign interrupted or killed \
         and rerun on the same $(docv) loses no completed work and \
         prints a byte-identical result.  A journal written by another \
         campaign (another command, seed, mode, or pipeline version) is \
         refused with a usage error before any job runs.")

(* The finished jobs [path] records, by job name; the first record of a
   job wins.  Any record that is not this campaign's is refused before
   anything runs or is appended. *)
let replay path ~campaign =
  let journaled = Hashtbl.create 128 in
  List.iter
    (function
      | Json.Obj [ ("campaign", Json.Str d); ("job", Json.Str job); ("r", r) ]
        when d = campaign ->
        if not (Hashtbl.mem journaled job) then Hashtbl.add journaled job r
      | _ -> usage (path ^ " was journaled by another campaign"))
    (Journal.load path);
  journaled

(* Read [path]'s records, then open it for appending; a journal that
   cannot be read or opened is a usage error before any job runs. *)
let open_journal path ~campaign =
  let refuse reason = usage (Printf.sprintf "--journal %s: %s" path reason) in
  try
    let journaled = replay path ~campaign in
    (journaled, Some (Journal.create path))
  with
  | Sys_error reason -> refuse reason
  | Unix.Unix_error (e, _, _) -> refuse (Unix.error_message e)

let run_campaign c ~id ~name ~encode ~decode f inputs =
  let jobs = jobs c.jobs in
  let timeout =
    match c.job_timeout with
    | Some t when not (t > 0.) -> usage "--job-timeout must be > 0"
    | t -> t
  in
  let campaign = Rp_support.Cas.key (Rp_driver.Pipeline.pass_version :: id) in
  let journaled, writer =
    match c.journal with
    | Some path -> open_journal path ~campaign
    | None -> (Hashtbl.create 1, None)
  in
  let inputs = Array.of_list inputs in
  let outcomes =
    Array.map
      (fun x ->
        Option.bind (Hashtbl.find_opt journaled (name x)) decode
        |> Option.map Result.ok)
      inputs
  in
  let fresh =
    List.init (Array.length inputs) Fun.id
    |> List.filter (fun i -> Option.is_none outcomes.(i))
    |> Array.of_list
  in
  let resumed = Array.length inputs - Array.length fresh in
  let cancel = Atomic.make false in
  let on_result k o =
    match (o, writer) with
    | Ok v, Some w ->
      let job = name inputs.(fresh.(k)) in
      Option.iter
        (fun r ->
          Journal.record w
            (Json.Obj
               [
                 ("campaign", Json.Str campaign); ("job", Json.Str job); ("r", r);
               ]))
        (encode v)
    | _ -> ()
  in
  let previous =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set cancel true))
  in
  let results =
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigint previous;
        Option.iter Journal.close writer)
      (fun () ->
        Pool.run_supervised ~jobs ?timeout
          ~cancel:(fun () -> Atomic.get cancel)
          ~on_result f
          (Array.map (fun i -> inputs.(i)) fresh))
  in
  Array.iteri (fun k o -> outcomes.(fresh.(k)) <- Some o) results;
  if Atomic.get cancel then begin
    let finished =
      Array.fold_left
        (fun n o -> match o with Some (Ok _) -> n + 1 | _ -> n)
        0 outcomes
    in
    Fmt.epr "interrupted after %d/%d finished jobs%s@." finished
      (Array.length inputs)
      (match c.journal with
      | Some p -> "; rerun with --journal " ^ p ^ " to resume"
      | None -> " (no --journal, completed work is lost)");
    exit 130
  end;
  let count p = Array.fold_left (fun n o -> if p o then n + 1 else n) 0 in
  let timeouts =
    count (function Error (Pool.Timed_out _) -> true | _ -> false) results
  and crashed =
    count (function Error (Pool.Crashed _) -> true | _ -> false) results
  in
  if timeouts + resumed + crashed > 0 then
    Fmt.epr "resilience: timeouts=%d resumed=%d crashed=%d@." timeouts resumed
      crashed;
  Array.to_list (Array.map Option.get outcomes)
