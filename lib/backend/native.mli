(** Run programs at hardware speed: shell the {!Cgen} C out to the system
    compiler, execute the binary, and parse its trailer back into the
    {!Rp_exec.Interp} result type.

    Contract: for every program and every runtime parameterization, a
    native run is observably identical to an interpreted run — same
    output, checksum, total and per-function counters, and the same
    {!Rp_exec.Interp.Error} / {!Rp_exec.Interp.Resource_limit} /
    [Invalid_argument] exceptions with the same messages on erroneous or
    resource-bounded programs.  Anything that prevents the runner from
    establishing that answer — no C compiler, a compile failure, a binary
    killed by a signal, a truncated or garbled trailer, a checksum that
    does not match the captured output — raises {!Error} instead, so
    infrastructure failure is always a quarantine and never a wrong
    answer. *)

exception Error of string
(** Native-backend infrastructure failure (distinct from program traps
    and resource limits, which re-raise the interpreter's exceptions). *)

type cc = {
  path : string;  (** compiler executable *)
  flags : string list;  (** e.g. [["-O1"]] *)
  identity : string;
      (** first line of [cc --version]; part of the binary cache key so a
          toolchain upgrade invalidates cached binaries *)
}

val find_cc :
  ?cache:Rp_support.Cas.t -> ?path:string -> ?flags:string list -> unit ->
  cc option
(** Probe for a working C compiler ([cc] on PATH by default, [-O1] by
    default) and capture its identity line.  [None] when the probe
    fails — callers skip or error out, visibly, rather than guessing.

    The probe is memoized per process (positive {e and} negative), so
    repeated callers — the bench host record, gen-fuzz, a daemon serving
    thousands of native jobs — pay one fork+exec per compiler path.
    With [?cache] the identity is additionally cached in the CAS keyed
    on the resolved executable's (path, size, mtime), so a fresh process
    running an all-warm-cache campaign spawns no compiler subprocess at
    all; a toolchain upgrade changes the stat triple and re-probes. *)

val default_cache_dir : unit -> string
(** Per-user binary cache root under the system temp directory. *)

(* ---- cc sandbox -------------------------------------------------- *)

type sandbox = {
  cpu_s : int;  (** CPU rlimit for the compiler ([ulimit -t]), seconds *)
  mem_mb : int;  (** address-space rlimit ([ulimit -v]), MiB *)
  fsize_mb : int;  (** output file-size rlimit ([ulimit -f]), MiB *)
  wall_s : float;  (** harness-enforced wall-clock deadline, seconds *)
  spawn_retry : Rp_support.Retry.policy;
      (** bounded retries for transient spawn failures (fork [EAGAIN],
          [ETXTBSY] races) *)
}

val default_sandbox : sandbox
(** 60 s CPU, 4 GiB AS, 512 MiB output, 120 s wall, 5 spawn attempts —
    generous for any one translation unit, fatal for a wedged cc. *)

(* ---- trailer protocol (exposed for tests) ------------------------ *)

type trailer = {
  status : [ `Ok | `Trap | `Limit | `Invalid ];
  msg : string;  (** trap/limit/invalid message; [""] for [`Ok] *)
  ret : Rp_exec.Value.t;
  checksum : int;
  ops : int;
  loads : int;
  stores : int;
  outlen : int;  (** bytes the binary wrote to stdout *)
  elapsed_ns : int;
      (** the binary's self-timed [main] duration (monotonic clock, from
          entry to trailer write); 0 if the line is absent *)
  funcs : (string * Rp_exec.Interp.counts) list;  (** didx order, all funcs *)
}

val parse_trailer : string -> trailer
(** Parse the fixed-format trailer ({b rpcc-native/1}).  Raises {!Error}
    on anything malformed: wrong magic, unknown status, missing fields,
    short or garbled records, a missing [end] marker.  Strictness is the
    point — a partial trailer must quarantine, not round down to a
    plausible result. *)

(* ---- compile & execute ------------------------------------------- *)

val compile :
  ?sandbox:sandbox ->
  ?cache:Rp_support.Cas.t ->
  ?key:string ->
  cc:cc ->
  Rp_ir.Program.t ->
  string * bool
(** [compile ?cache ~cc prog] emits C, compiles it, and returns
    [(binary_path, cache_hit)].  The binary lands in a fresh temp file the
    caller should remove when done.  With [?cache], compiled binaries are
    stored content-addressed under
    [Cas.key [Cgen.version; emitted C; cc identity; cc flags]], exactly
    what cc compiles: configs whose analyses agree emit the same C and
    share one binary, and a pass change reaches the key through the C it
    emits.  Compiles are single-flight per (store, binary key): a domain
    asking for a key another domain is compiling waits for it (at most
    that compile's sandbox [wall_s]) and then reads the store, so
    concurrent cells that emit one translation unit run cc once.  A
    waiter whose leader failed compiles for itself.  Raises {!Error} if
    cc fails.

    [?key] is ignored.  It stays only because [perfbench/traced.ml]
    still passes one, and goes when that file next changes.  Honouring
    it would put a second keying scheme in the one store: the traced
    run's untraced campaign would miss every binary its traced passes
    filled. *)

val exec_bin :
  ?fuel:int ->
  ?max_depth:int ->
  ?deadline:float ->
  string ->
  Rp_exec.Interp.result
(** Execute a compiled binary with the interpreter's runtime parameter
    defaults (fuel 400M, depth 100k).  The
    binary raises its own stack rlimit to the hard maximum at startup
    (deep IR recursion lives on the C stack; the interpreter's frames
    lived on the OCaml heap), with
    stdout captured as the program output and the trailer read from a
    private temp file.  [?deadline] is a wall-clock budget in seconds,
    enforced cooperatively by the emitted code's 4096-op poll exactly
    like the interpreter's [should_stop].  Raises [Interp.Error],
    [Interp.Resource_limit], or [Invalid_argument] as the interpreter
    would; {!Error} on infrastructure failure. *)

val run :
  ?fuel:int ->
  ?max_depth:int ->
  ?deadline:float ->
  ?sandbox:sandbox ->
  ?cache:Rp_support.Cas.t ->
  cc:cc ->
  Rp_ir.Program.t ->
  Rp_exec.Interp.result
(** [compile] + [exec_bin] + cleanup, as a drop-in for
    {!Rp_exec.Interp.run}. *)

type timed = {
  result : Rp_exec.Interp.result;
  cc_ms : float;
      (** all of {!compile}: emit, then either cc (a store miss) or the
          store read and the write of the binary to its temp file (a
          hit, a few ms, not 0).  Time spent waiting for another domain
          compiling the same C counts here too. *)
  exec_ms : float;
      (** the binary's self-timed [main] duration: the native [run_ms],
          symmetric with the interpreter's (which excludes compile) —
          fork/exec/loader overhead is harness cost, not program run
          time.  Falls back to harness-measured wall time if the trailer
          carries no [elapsed_ns]. *)
  cache_hit : bool;
}

val run_timed :
  ?fuel:int ->
  ?max_depth:int ->
  ?deadline:float ->
  ?sandbox:sandbox ->
  ?cache:Rp_support.Cas.t ->
  ?key:string ->
  cc:cc ->
  Rp_ir.Program.t ->
  timed
(** Like {!run} but splitting compile time from execution time, for the
    bench harness's [run_ms] accounting.  [?key] is ignored, as on
    {!compile}, and for the same reason. *)

(* ---- graceful degradation ---------------------------------------- *)

type laddered = {
  l_result : Rp_exec.Interp.result;
  l_mode : [ `Native | `Interp ];  (** which rung produced the answer *)
  l_degraded : string option;
      (** [Some reason] when any rung below the first fired — including
          a successful recompile that still answered natively *)
  l_cc_ms : float;
  l_exec_ms : float;
  l_cache_hit : bool;
}

val run_laddered :
  ?fuel:int ->
  ?max_depth:int ->
  ?deadline:float ->
  ?sandbox:sandbox ->
  ?cache:Rp_support.Cas.t ->
  interp:(unit -> Rp_exec.Interp.result * float) ->
  cc:cc option ->
  Rp_ir.Program.t ->
  laddered
(** The graceful degradation ladder: native → one fresh recompile that
    bypasses the binary cache's read side (but writes through, repairing
    a bad entry for later jobs) → the caller's [interp] thunk (which
    returns the result plus its run time in ms).  Only {!Error} —
    infrastructure failure: cc missing or crashing, a sandbox-limit
    trip, a malformed trailer, a corrupt cached binary — descends a
    rung.  Faithful program outcomes ({!Rp_exec.Interp.Error},
    {!Rp_exec.Interp.Resource_limit}, [Invalid_argument]) re-raise from
    whichever rung produced them: every rung computes the same answer by
    contract, so the result is rung-independent and only the telemetry
    and latency vary.  Never raises {!Error} itself — if the interpreter
    rung also fails, that exception is the campaign's to handle. *)
