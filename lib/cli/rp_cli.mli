(** Command-line conventions shared by [rpcc] and the bench harness.

    {b Validation.}  Invalid numeric values are rejected with a usage
    message on stderr and exit code 2 (the repo-wide usage-error code),
    never silently corrected.  Malformed values and unknown flags are
    cmdliner's to reject (exit 124).

    {b Campaign flags.}  The supervised campaigns — [rpcc fuzz],
    [rpcc gen-fuzz], the bench grid — share one definition of each
    supervision flag, and [rpcc serve]/[rpcc fleet] reuse [--jobs] and
    [--retries].  Flags come back as options so that a caller can tell
    a flag that was given from its default. *)

val usage : string -> 'a
(** Print [usage: MSG] on stderr and exit 2. *)

val positive : flag:string -> int -> int
(** A strictly positive argument (queue bounds, thresholds): values
    [< 1] print [usage: FLAG must be >= 1] and exit 2. *)

val jobs : int option -> int
(** The [--jobs] value: absent means 1, [0] the machine's recommended
    domain count ({!Rp_support.Pool.recommended_jobs}); a negative value
    prints [usage: --jobs must be >= 0 (0 = auto)] and exits 2. *)

val retries : int option -> int
(** The [--retries] value: absent means 1; a negative value prints
    [usage: --retries must be >= 0] and exits 2. *)

val jobs_t : int option Cmdliner.Term.t
(** [-j/--jobs N] *)

val job_timeout_t : float option Cmdliner.Term.t
(** [--job-timeout SECONDS] *)

val retries_t : int option Cmdliner.Term.t
(** [--retries N] *)

val journal_t : string option Cmdliner.Term.t
(** [--journal FILE] *)

val resume_t : string option Cmdliner.Term.t
(** [--resume FILE] *)

val with_sigint : (unit -> 'a) -> 'a
(** Run a campaign with SIGINT turned into cooperative cancellation:
    while it runs, SIGINT makes {!interrupted} true (workers stop taking
    jobs; journal records already written are fsynced).  The previous
    handler is restored afterwards. *)

val interrupted : unit -> bool

val exit_interrupted : progress:string -> journal:string option -> 'a
(** Print [interrupted after PROGRESS] with a resume hint naming the
    journal (or saying that completed work is lost) and exit 130. *)
