(** The supervision layer's failure-outcome counters.

    Every supervised execution surface — the worker pool, the campaign
    drivers, [rpcc run --retries] — folds its failure handling into one of
    these records, and every stats-JSON document renders it as the
    [resilience] object, so timeouts, retries, breaker trips, and resumed
    work are observable wherever counts are.  Counters are atomic: worker
    domains tick them concurrently. *)

type t

type outcome =
  | Timeout  (** a job hit its wall-clock deadline *)
  | Retry  (** a failed job was re-attempted *)
  | Breaker_trip  (** a circuit breaker opened *)
  | Resumed  (** a unit of work was skipped via a [--resume] journal *)
  | Crash  (** a job raised (or its worker died) *)
  | Quarantine  (** a job was given up on after its retry budget *)

val create : unit -> t
val tick : t -> outcome -> unit
val count : t -> outcome -> int
val set : t -> outcome -> int -> unit

val any : t -> bool
(** True when any counter is nonzero. *)

val merge : into:t -> t -> unit
(** Add every counter of the second record into [into]. *)

val to_json : ?breakers:Json.t -> t -> Json.t
(** [{"timeouts": _, "retries": _, "breaker_trips": _, "resumed": _,
     "crashed": _, "quarantined": _}] —
    the stats-JSON [resilience] object.  Surfaces that own a circuit breaker (the bench grid, [rpcc
    serve] health) pass [?breakers] (normally
    {!Retry.Breaker.snapshots_json}) to append a [breakers] key with
    per-key state; surfaces without one ([rpcc run]) omit it and their
    schema is unchanged. *)

val pp : Format.formatter -> t -> unit
(** One line: [timeouts=0 retries=0 breaker_trips=0 resumed=0 crashed=0
    quarantined=0]. *)
