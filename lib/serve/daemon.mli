(** The [rpcc serve] daemon: a crash-tolerant compile/run service.

    Accepts {!Protocol} batches over a Unix-domain socket and dispatches
    them to one persistent supervised worker pool
    ({!Rp_support.Pool.create} — per-job deadlines, bounded retries,
    wedged-worker replacement), backed by a content-addressed store
    ({!Rp_support.Cas}) keyed on (pass version, configuration
    fingerprint, source).

    One [select] loop on the main domain serves every connection at
    once: it reads each batch without blocking until the client's EOF
    (30 s deadline), admits and journals it, submits it to the pool,
    and, when the batch's last job resolves (the pool wakes the loop
    through its fd), writes the answers in request order without
    blocking (30 s deadline).  A stalled or silent client costs only its
    own connection.  At most 512 connections are held open at once;
    further clients wait in the listen backlog.

    Crash-tolerance contract:
    - every admitted job is journaled ({e recv}) before execution and
      again ({e done}) after it resolves, fsync-per-record;
    - all cache writes are atomic (tmp + rename) and verified on read;
      corrupt entries are quarantined and recomputed, never served;
    - a SIGKILL'd daemon restarted on the same [state_dir] comes back
      {e warm}: it replays the journal tail (corrupt records skipped and
      counted), reports work that was in flight at the kill, and serves
      byte-identical responses for re-submitted jobs from the store;
    - SIGTERM/SIGINT drain gracefully: the daemon stops accepting,
      closes connections still sending their batch (nothing was
      journaled or promised to them), answers every admitted batch, then
      stops the pool, unlinks the socket and closes the journal; {!serve}
      returns (the CLI then exits 0);
    - backpressure: [queue_bound] caps the jobs admitted and not yet
      answered across all connections; requests beyond it receive
      [overloaded] responses instead of queueing unboundedly;
    - a [health] request reports served/error counters, cache
      hit/miss/quarantine rates, resilience counters, and the journal
      replay summary. *)

type config = {
  socket : string;
      (** Unix-domain socket path.  A stale leftover file is replaced; a
          socket a {e live} daemon still answers on is refused (usage
          error) — see {!remove_stale_socket} *)
  state_dir : string;  (** holds [journal.jsonl] and the store [cas/] *)
  jobs : int;  (** worker domains in the daemon's pool (at least 1) *)
  queue_bound : int;
      (** max jobs admitted and not yet answered, across connections *)
  job_timeout : float option;  (** per-job wall-clock deadline, seconds *)
  retries : int;  (** extra attempts per failed job *)
}

val default_config : config
(** [socket = "rpcc.sock"], [state_dir = ".rpcc-serve"], [jobs = 1],
    [queue_bound = 64], 30 s timeout, 1 retry. *)

val remove_stale_socket : string -> unit
(** Clear the way for binding [path].  Probe-first: a leftover socket
    file is connected to before anything is unlinked — [ECONNREFUSED]
    means no listener survives and the file is removed; a successful
    connect means a live daemon owns the name and this raises [Failure]
    ("already being served") instead of orphaning it.  Non-socket files
    and unsure probes also raise [Failure]; a missing path is fine. *)

val serve : config -> unit
(** Run until SIGTERM/SIGINT, then drain and return.  Prints one
    [listening] line to stdout once accepting.  Startup replays the
    journal, then {e compacts} it: matched recv/done pairs and corrupt
    lines are dropped (atomic rewrite), leaving only the lost-in-flight
    records; the count dropped is reported as
    [journal.compacted_records] in [health], alongside [uptime_s] and
    the pipeline [pass_version]. *)
