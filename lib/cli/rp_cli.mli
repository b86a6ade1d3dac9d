(** Command-line conventions shared by [rpcc] and the bench harness, and
    the one runner of their campaigns.

    {b Validation.}  Invalid numeric values are rejected with a usage
    message on stderr and exit code 2 (the repo-wide usage-error code),
    never silently corrected.  Malformed values and unknown flags are
    cmdliner's to reject (exit 124).

    {b Campaigns.}  The supervised campaigns — [rpcc fuzz], [rpcc
    gen-fuzz], the bench grid — share one definition of the three
    campaign flags ({!campaign_t}) and one runner ({!run_campaign}):
    journal, supervision, SIGINT handling and the failure report live
    here and nowhere else.  [rpcc serve] reuses [--jobs]. *)

val usage : string -> 'a
(** Print [usage: MSG] on stderr and exit 2. *)

val positive : ?min:int -> flag:string -> int -> int
(** An argument that must be at least [min] (default 1: strictly
    positive, as [rpcc serve --queue-bound], [--fuel] or [--trials]):
    smaller values print [usage: FLAG must be >= MIN] and exit 2. *)

val jobs : int option -> int
(** The [--jobs] value: absent means 1, [0] the machine's recommended
    domain count ({!Rp_support.Pool.recommended_jobs}); a negative value
    prints [usage: --jobs must be >= 0 (0 = auto)] and exits 2. *)

val jobs_t : int option Cmdliner.Term.t
(** [-j/--jobs N] *)

(** The campaign flags, as given: [None] for a flag left at its
    default, so a caller can tell the two apart. *)
type campaign = {
  jobs : int option;  (** [-j/--jobs N] *)
  job_timeout : float option;  (** [--job-timeout SECONDS] *)
  journal : string option;  (** [--journal FILE] *)
}

val campaign_t : campaign Cmdliner.Term.t

val run_campaign :
  campaign ->
  id:string list ->
  name:('a -> string) ->
  encode:('b -> Rp_support.Json.t option) ->
  decode:(Rp_support.Json.t -> 'b option) ->
  (should_stop:(unit -> bool) -> 'a -> 'b) ->
  'a list ->
  'b Rp_support.Pool.supervised list
(** [run_campaign c ~id ~name ~encode ~decode f inputs] runs one job [f
    x] per input and returns, for each input in order, its outcome: [Ok
    v] for a job replayed from [c.journal] or finished now, [Error] for
    one quarantined under [--job-timeout] or because it raised (see
    {!Rp_support.Pool.run_supervised}).  A job runs once.

    {b Failure report.}  Before returning, it counts the jobs it
    replayed and the [Timed_out] and [Crashed] outcomes it returns, and
    when any count is nonzero prints one stderr line,
    [resilience: timeouts=T resumed=R crashed=C].  A healthy run with no
    journal prints nothing.

    {b The campaign digest.}  [id] lists every input, besides the job
    itself, that determines a job's answer (the command, a seed, a
    mode); the campaign's digest D is that of
    {!Rp_driver.Pipeline.pass_version} and [id].

    {b Journal.}  [c.journal] names the one file a campaign replays and
    extends.  A job whose name has a record in it is replayed from the
    first such record through [decode] instead of run, and counts once
    as resumed; records naming no input are ignored, and a missing or
    empty file replays nothing.  Every other job that finishes with a
    value [v] for which [encode v = Some p] appends one fsynced record
    [{"campaign": D, "job": name x, "r": p}] (in {!Rp_support.Journal}'s
    CRC wrapper) as it finishes; [encode] returning [None] keeps a value
    out of the journal.  A record carrying another digest — another
    campaign's, or a record of another shape — prints [usage: FILE was
    journaled by another campaign] and exits 2, and a file that cannot
    be read or opened for appending prints [usage: --journal FILE:
    REASON] and exits 2, both before any job runs or any record is
    appended.

    {b Validation.}  A negative [--jobs], or a [--job-timeout] that is
    not [> 0], prints a usage line and exits 2 before the journal is
    read or any job runs.

    {b SIGINT.}  While the jobs run, SIGINT cancels the campaign
    cooperatively: workers stop taking jobs, the journal (whose records
    are already on disk) is closed, [interrupted after K/N finished
    jobs; rerun with --journal FILE to resume] is printed, and the
    process exits 130. *)
