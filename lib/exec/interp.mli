(** The instrumented IL interpreter.

    Executes a program from [main] and reports its output, an FNV-1a output
    checksum, and the dynamic operation counts the paper's evaluation is
    built on: total operations, loads (cLoad/sLoad/Load), and stores
    (sStore/Store), whole-program and per-function.

    Every pointer-based access dynamically verifies that the tag of the
    object actually touched belongs to the operation's static tag set —
    each run doubles as a soundness check of MOD/REF and points-to
    analysis.  The [rand] builtin starts from seed 12345; a program may
    reseed it with [srand].

    Each run compiles {!Precomp}'s dense form into closures, one per
    instruction with everything but the register contents fixed, and
    charges operations once per straight-line segment.  Counts, output,
    traps, and the operation on which fuel runs out or a [should_stop]
    poll fires are exactly those of counting every operation singly. *)

open Rp_ir

type counts = {
  mutable ops : int;
  mutable loads : int;
  mutable stores : int;
}

type result = {
  ret : Value.t;  (** [main]'s return value *)
  output : string;
  checksum : int;
  total : counts;
  per_func : (string * counts) list;  (** sorted by function name *)
}

exception Error of string
(** Alias of {!Value.Runtime_error}: traps (bounds, use-after-free,
    undefined values, division by zero, tag-set violations). *)

exception Resource_limit of string
(** Fuel exhaustion or call-stack overflow — the program exceeded an
    interpreter resource limit rather than trapping.  Reported by [rpcc]
    with its own exit code (3). *)

val is_external_stop : string -> bool
(** Whether a {!Resource_limit} message reports a cooperative abort (a
    [should_stop] poll or [deadline] firing; the native backend raises
    the same message) rather than the program exhausting fuel or stack:
    supervisors use it to tell their own deadline from a deterministic
    limit. *)

(** Run the program.
    @param fuel maximum executed operations (default 4×10⁸)
    @param max_depth call-stack limit (default 100000)
    @param should_stop polled every 4096 operations; returning [true]
    aborts the run with {!Resource_limit} — wall-clock budgets for the
    fuzz reducer (default: never)
    @param deadline wall-clock budget in seconds for this run, which
    must be positive (a budget of 0 or less stops the run at its first
    poll, where the native backend would read it as no deadline); folded
    into the [should_stop] poll, so exceeding it aborts with
    {!Resource_limit} just like an external stop (default: none).  This
    is how the supervised pool's per-job deadlines reach the
    interpreter. *)
val run :
  ?fuel:int ->
  ?max_depth:int ->
  ?should_stop:(unit -> bool) ->
  ?deadline:float ->
  Program.t ->
  result

(** How one execution ended: its result, or the message of the {!Error}
    or {!Resource_limit} it raised. *)
type outcome = Completed of result | Trapped of string | Limited of string

val outcome : (unit -> result) -> outcome
(** [outcome (fun () -> run p)] runs [p] and says how the run ended. *)
