(** Fixed-size Domain worker pool with deterministic, index-ordered
    collection ({!run}), and a persistent supervised pool with per-job
    deadlines, bounded retries, and worker respawn ({!create},
    {!run_supervised}). *)

type 'a outcome = ('a, exn) result

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the natural default for a
    [--jobs] flag. *)

val run :
  jobs:int ->
  ?on_result:(int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
(** [run ~jobs f inputs] maps [f] over [inputs] on up to [jobs] domains
    (clamped to [1 .. Array.length inputs]; the calling domain is one of
    them) and returns outcomes in input order.  A job that raises yields
    [Error exn] in its slot; the other jobs still run.  The result array
    is identical for every [jobs] value.  Jobs must not print or share
    mutable non-atomic state.

    [on_result i o] fires on the domain that finished job [i], as soon as
    it finishes — out of index order.  It must be thread-safe and must not
    raise; campaign drivers use it to journal completions incrementally.

    All spawned domains are joined even if the calling domain's share of
    the work — or [on_result] — raises: no domain leaks on exception
    paths. *)

val run_exn : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [run] plus fail-fast collection: re-raises the first captured
    exception in index order — the same exception a sequential loop would
    have raised first. *)

(* ------------------------------------------------------------------ *)
(* Supervised execution                                                *)
(* ------------------------------------------------------------------ *)

(** Why a supervised job was given up on, after its retry budget:
    [attempts] is the total number of attempts made. *)
type job_failure =
  | Timed_out of { elapsed : float; attempts : int }
      (** every attempt exceeded the per-job deadline *)
  | Crashed of { reason : string; attempts : int }
      (** every attempt raised ([reason] is the last exception), or the
          run was cancelled before the job finished
          ([reason = "cancelled"], [attempts] = attempts started) *)

type 'a supervised = ('a, job_failure) result

val pp_job_failure : Format.formatter -> job_failure -> unit

(** {2 The persistent pool}

    One set of supervised worker domains that outlives its batches: [rpcc
    serve] creates one at startup and feeds it every connection's jobs.
    Idle workers block on a condition variable; each resolved job writes
    a byte to a self-pipe ({!wake_fd}), so the owner learns of
    completions by [select] and otherwise sleeps only until the earliest
    wedge deadline ({!supervise}).  Nothing polls.

    The pool is driven by one domain, its {e owner}: {!submit},
    {!supervise} and {!shutdown} must all be called there. *)

type t

type 'b batch
(** The jobs of one {!submit}, resolved independently of other batches. *)

val create :
  jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?grace:float ->
  ?resilience:Resilience.t ->
  unit ->
  t
(** Spawn [max 1 jobs] worker domains, supervised under one policy.

    {b Deadlines.}  Each job attempt receives a [should_stop] closure that
    turns [true] once the attempt has run for [timeout] seconds (or its
    batch is cancelled, or the pool shuts down); cooperative workloads —
    anything built on the interpreter's [?should_stop] polling — abort
    promptly and the attempt counts as timed out.  No [timeout] means no
    deadline.

    {b Supervision.}  A worker whose attempt has overrun
    [timeout + grace] without returning (a wedged compile, a
    non-cooperative loop) is declared dead by the next {!supervise}: its
    job is taken away, the worker domain is abandoned (left to finish into
    the void — OCaml domains cannot be killed; its late result is
    discarded by a claim check) and a replacement worker is spawned so
    throughput recovers.  [grace] defaults to 1 s.

    {b Retries.}  A failed attempt (timeout or exception) is re-queued up
    to [retries] extra times (default 1), then the job is quarantined as
    [Error (Timed_out _ | Crashed _)].  Failure events tick [resilience]
    (timeouts, retries, crashes, quarantines) when given. *)

val submit :
  t ->
  ?cancel:(unit -> bool) ->
  ?on_result:(int -> 'b supervised -> unit) ->
  (should_stop:(unit -> bool) -> 'a -> 'b) ->
  'a array ->
  'b batch
(** Queue one job per input and return at once.

    [on_result i o] fires on the resolving domain as soon as job [i]
    resolves (completes, or exhausts its retries) — out of index order,
    and not on cancellation.  It must be thread-safe and must not raise.

    [cancel] is read by the batch's attempts through [should_stop] and by
    the batch's waiter in {!run_supervised}; see there. *)

val finished : 'b batch -> bool
(** Every job of the batch is resolved. *)

val results : 'b batch -> 'b supervised array
(** The batch's outcomes in input order; complete once {!finished}. *)

val wake_fd : t -> Unix.file_descr
(** Readable after a job resolves.  The owner [select]s on it (with
    whatever else it serves) and calls {!supervise} when it is readable
    or the timeout {!supervise} returned has expired. *)

val supervise : t -> float option
(** Drain {!wake_fd}, abandon and replace wedged workers, and return the
    seconds until the next moment a running attempt could be declared
    wedged — [None] when none can be (no [timeout], or nothing
    outstanding). *)

val shutdown : t -> unit
(** Stop the workers: in-flight attempts are asked to stop, queued jobs
    are dropped, and every live (non-abandoned) worker is joined. *)

(** {2 One batch} *)

val run_supervised :
  jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?grace:float ->
  ?cancel:(unit -> bool) ->
  ?resilience:Resilience.t ->
  ?on_result:(int -> 'b supervised -> unit) ->
  (should_stop:(unit -> bool) -> 'a -> 'b) ->
  'a array ->
  'b supervised array
(** [run_supervised ~jobs f inputs] is {!run} under supervision: a pool
    of [min jobs (Array.length inputs)] workers ({!create}), one
    {!submit}, a wait, and {!shutdown}.  The calling domain does not run
    jobs: it waits on {!wake_fd} and supervises.

    {b Cancellation.}  When [cancel ()] turns true, workers stop taking
    the batch's jobs, in-flight attempts are asked to stop, and every
    unfinished job resolves to [Error (Crashed { reason = "cancelled"; _
    })] without firing [on_result] — callers flush their journal and
    exit; completed work is already recorded.  A signal handler may set
    the flag [cancel] reads on any domain, so the waiter re-checks it at
    least every 100 ms.

    {b Determinism.}  Completed jobs ([Ok _] slots) carry exactly the
    value a sequential run would have produced: retrying a deterministic
    job cannot change its result, and collection is by index, so the
    [Ok] portion of the result array is byte-identical at any [jobs]
    value.  Only {e whether} a job times out depends on the wall clock.

    All live workers are joined before returning, even if supervision
    raises. *)
