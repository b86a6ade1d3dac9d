(** The compilation pipeline in the paper's §5 order: analysis → register
    promotion (early) → scalar optimizer → register allocation → cleaning.
    Each stage is timed; the analyses report fixpoint iteration counts.

    Every pass runs isolated behind a snapshot/rollback guard: a pass that
    raises (or fails translation validation when enabled) is rolled back
    and recorded in [degraded] while the rest of the pipeline continues. *)

open Rp_ir

(** Why the isolation guard rolled a pass back; {!pp_reason} prints it as
    [stats_json] reports it. *)
type reason =
  | Raised of string  (** the exception's text *)
  | Invalid_il of string list  (** the structural validator's errors *)
  | Changed of string  (** under the oracle: output, checksum or trap *)
  | Count_regressed of int * int  (** under the oracle: ops before, after *)
  | Budget_exhausted of string  (** the analysis out of fixpoint budget *)

val pp_reason : Format.formatter -> reason -> unit

type stage_stats = {
  mutable promoted : int;
  mutable throttled : int;
  mutable ptr_promoted : int;
  mutable hoisted : int;
  mutable vn_rewrites : int;
  mutable pre_removed : int;
  mutable folded : int;
  mutable dce_removed : int;
  mutable dse_removed : int;
  mutable spilled : int;
  mutable coalesced : int;
  mutable analysis_iters : int;
      (** fixpoint iterations spent in interprocedural analysis *)
  mutable timings : (string * float) list;
      (** per-pass wall-clock seconds, in execution order; repeated passes
          (clean, copyprop, valnum) appear once per execution *)
  mutable degraded : (string * reason) list;
      (** passes rolled back by the isolation guard, as (pass, reason), in
          execution order; empty on a healthy compile *)
  mutable converged : bool;
      (** false when an interprocedural analysis exhausted its fixpoint
          budget and the compile degraded to the conservative ⊤ answer *)
  mutable validated_passes : int;
      (** passes whose output passed translation validation; 0 unless
          [Config.verify_passes] or [Config.oracle] is on *)
}

val zero_stage_stats : unit -> stage_stats

(** Fault-injection hook for tests and [rpcc fuzz]: called with the pass
    name at the start of every guarded pass body, inside the isolation
    boundary.  Domain-local: parallel fuzz workers inject faults into
    their own compiles only.  Default: no-op. *)
val fault_hook : (string -> unit) ref Domain.DLS.key

(** [with_fault_hook hook f] runs [f] with [hook] installed as this
    domain's fault hook, restoring the previous hook afterwards. *)
val with_fault_hook : (string -> unit) -> (unit -> 'a) -> 'a

(** Run the middle- and back-end on lowered IL; validates the result.
    [stats], when given, is extended in place (used by {!compile} to record
    front-end timing in the same record). *)
val optimize : ?config:Config.t -> ?stats:stage_stats -> Program.t -> stage_stats

(** Compile Mini-C source text. *)
val compile : ?config:Config.t -> string -> Program.t * stage_stats

(** Compile and execute.  [fuel] and [should_stop] are forwarded to
    {!Rp_exec.Interp.run}: the supervised execution layer's [should_stop]
    imposes per-job wall-clock budgets on the run phase. *)
val compile_and_run :
  ?config:Config.t ->
  ?fuel:int ->
  ?should_stop:(unit -> bool) ->
  string ->
  Program.t * stage_stats * Rp_exec.Interp.result

(** Sum of all recorded pass times, in seconds. *)
val total_time : stage_stats -> float

(** Counters, fixpoint iterations, degradation/validation state, and
    per-pass timings (milliseconds, repeated passes summed) as a JSON
    object. *)
val stats_json : Config.t -> stage_stats -> Rp_support.Json.t

val pass_version : string
(** Version stamp baked into every content-addressed cache key.  Bump on
    any behaviour change to a pass, the serializer, the interpreter's
    observable counts, or the stats schema: stale entries then stop
    matching instead of being served. *)

val cache_key : config:Config.t -> string -> string
(** The {!Rp_support.Cas} key for compiling the source under the
    configuration: {!pass_version} + {!Config.fingerprint} + source
    bytes. *)

type cached_run = {
  stats : Rp_support.Json.t;
      (** the {!stats_json} document of the populating compile — on a
          warm hit this includes the {e original} compile's timings, so
          re-served responses are byte-identical *)
  output : string;
  checksum : int;
  ops : int;
  loads : int;
  stores : int;
  cache_hit : bool;
}

val result_json : cached_run -> Rp_support.Json.t
(** [{"output", "checksum", "ops", "loads", "stores"}], in that order:
    the [result] of a [run] cache object and of a serve response. *)

(** {!compile_and_run} through a content-addressed store, one [run]
    object per {!cache_key}: [{"stats": stats document, "result":
    result_json}].  A warm key is one verified {!Rp_support.Cas.get}
    and a decode, without touching the pipeline; an object of another
    shape counts as a miss.  A cold key compiles, runs, and publishes
    the object with one atomic {!Rp_support.Cas.put} after the run
    completes — an aborted or trapped job caches nothing.  Corrupt
    entries are quarantined by {!Rp_support.Cas.get} and transparently
    recomputed. *)
val compile_and_run_cached :
  ?config:Config.t ->
  ?should_stop:(unit -> bool) ->
  ?runner:(Rp_ir.Program.t -> Rp_exec.Interp.result) ->
  cas:Rp_support.Cas.t ->
  string ->
  cached_run
(** @param runner the execution engine for the cold path (default: the
    interpreter with [should_stop]).  The daemon's native job mode
    passes the compiled-C degradation ladder here.  Contract: a runner
    must return the interpreter-identical result (or raise the
    interpreter's own exceptions), because its output is cached under
    the same mode-independent key and re-served to every later
    caller. *)
