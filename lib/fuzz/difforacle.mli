(** Cross-configuration differential oracle (see [rpcc gen-fuzz]).

    Compiles one Mini-C program under the [O0] reference configuration and
    the six {!Rp_driver.Config.paper_grid} cells, runs all seven, and
    reports any divergence: output or checksum mismatch, asymmetric trap, a
    grid run needing disproportionate fuel, a compile-time crash, or a pass
    rolled back by the hardened pipeline (in {!Verify}/{!OraclePasses}
    modes), including unsound dynamic-count regressions.  With [?native]
    an eighth cell runs the default-configuration program through both
    the interpreter and the compiled-C backend.  Every cell is judged by
    one comparison, {!compare_runs}.  Because the generator ({!Gen}) only
    emits defined, terminating programs, every divergence is a compiler
    bug. *)

(** How much of the hardened pipeline each grid compile arms:
    {!Plain} nothing (end-to-end comparison only), {!Verify} per-pass
    structural validation (cheap, the default), {!OraclePasses} the full
    per-pass execution oracle — strongest, but every guarded pass runs the
    program twice. *)
type mode = Plain | Verify | OraclePasses

(** Divergence classes, with their CLI names ({!class_name}):
    ["crash"] compile raised, ["degraded"] a pass was rolled back,
    ["counts"] a count-reducing pass regressed dynamic counts (oracle
    mode) or the native cell's counts differ from the interpreter's,
    ["output"]/["checksum"] behavioural mismatch vs the reference,
    ["trap"] asymmetric or different trap, ["fuel"] the configuration
    needed more than 4× the reference's operations. *)
type cls =
  | Crash
  | Degraded_pass
  | Count_regression
  | Output_mismatch
  | Checksum_mismatch
  | Trap_mismatch
  | Fuel_imbalance

val class_name : cls -> string
val class_of_string : string -> cls option

type failure = { config : string; cls : cls; detail : string }

type outcome =
  | Agree of { configs : int; ref_ops : int }
      (** all grid configurations matched the reference *)
  | Rejected of string
      (** the front end rejected the source — configuration-independent,
          so no differential signal (a generator bug if the source came
          from {!Gen}) *)
  | Inconclusive of string
      (** the reference run exhausted fuel or the wall-clock deadline
          passed — treated as quarantine by the reducer, never as failure *)
  | Diverged of failure list  (** at least one real divergence *)

(** What a cell is held to: a {!Grid} cell, the O0 reference's output,
    checksum, trap and limit; the {!Native} cell, which runs the program
    the interpreter ran, also its return value and every count. *)
type cell = Grid | Native

val compare_runs :
  cell ->
  expected:Rp_exec.Interp.outcome ->
  Rp_exec.Interp.outcome ->
  (cls * string) option
(** [compare_runs cell ~expected got] is [None] when [got] agrees with
    [expected] or either run was stopped ([Limited (Stopped _)]: the
    caller's deadline or stop request carries no differential signal),
    else the divergence's class and detail: [Fuel_imbalance] when a
    limit is involved, [Trap_mismatch] between a completion and a trap
    or two traps. *)

val default_fuel : int
(** Reference-run fuel (2×10⁶); grid runs get [max (4×ref_ops + 10k) 100k]. *)

val check :
  ?mode:mode ->
  ?fuel:int ->
  ?deadline:float ->
  ?should_stop:(unit -> bool) ->
  ?inject:Faultgen.mutation * int ->
  ?native:Rp_backend.Native.cc ->
  string ->
  outcome
(** Run the oracle on Mini-C source text.
    @param mode pipeline arming for grid compiles (default {!Verify})
    @param fuel reference-run fuel (default {!default_fuel})
    @param deadline absolute {!Rp_support.Clock.now} reading (seconds on
    the monotonic clock, not the time of day) after which remaining work
    is skipped and, absent real failures, the outcome is [Inconclusive] —
    already-found divergences are still reported
    @param should_stop external cancellation, polled alongside [deadline]
    (during interpretation, between grid compiles and while cc runs); turning
    [true] has the same effect as the deadline passing.  This is the
    supervised pool's per-job deadline hook.
    @param inject plant [Faultgen.mutate m] (seeded by the int, mixed
    with the configuration index) inside the first guarded pass of every
    grid compile; the reference is never mutated
    @param native also run one interpreter-vs-native comparison cell
    (config name ["native"]) with the given C compiler: the same
    [Config.default]-compiled program executes under both {!Interp.run}
    and {!Rp_backend.Native.run}, compared as a {!Native} cell with the
    interpreter's run as the reference: any difference is a
    code-generator bug.  Never fault-injected.  Backend infrastructure
    failures ({!Rp_backend.Native.Error}) are classed [Crash]; a stop
    request that ends a running cc is the [Stopped] limit, which
    {!compare_runs} drops like any stopped run. *)

val outcome_json : outcome -> Rp_support.Json.t
(** Serialize an outcome for a campaign journal record. *)

val outcome_of_json : Rp_support.Json.t -> outcome option
(** Inverse of {!outcome_json}; [None] on malformed input.  Used by
    a rerun with [--journal] to replay finished trials without re-running
    them. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_outcome : Format.formatter -> outcome -> unit
