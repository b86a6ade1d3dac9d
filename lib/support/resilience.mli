(** The supervision layer's failure-outcome counters.

    Every supervised execution surface — the worker pool, the campaign
    drivers, [rpcc run --timeout] — folds its failure handling into one of
    these records, and every stats-JSON document renders it as the
    [resilience] object, so timeouts, crashes, quarantines and resumed
    work are observable wherever counts are.  Counters are atomic: worker
    domains tick them concurrently. *)

type t

type outcome =
  | Timeout  (** a job hit its wall-clock deadline *)
  | Resumed  (** a unit of work was replayed from a [--journal] *)
  | Crash  (** a job raised (or its worker died) *)
  | Quarantine  (** a job was given up on after its one attempt failed *)

val create : unit -> t
val tick : t -> outcome -> unit
val count : t -> outcome -> int

val any : t -> bool
(** True when any counter is nonzero. *)

val to_json : t -> Json.t
(** [{"timeouts": _, "resumed": _, "crashed": _, "quarantined": _}] — the
    stats-JSON [resilience] object. *)

val pp : Format.formatter -> t -> unit
(** One line: [timeouts=0 resumed=0 crashed=0 quarantined=0]. *)
