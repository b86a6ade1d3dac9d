(** Monotonic time: [CLOCK_MONOTONIC] in seconds.  Readings never
    decrease (system clock steps cannot fire budgets early or make
    timers negative) and count from an arbitrary fixed origin, not the
    Unix epoch, so only differences and deadlines built as
    [now () +. budget] are meaningful. *)

val now : unit -> float
(** Current reading, in seconds from an arbitrary fixed origin. *)

val elapsed : float -> float
(** [elapsed t0] is seconds since the {!now} reading [t0]; >= 0. *)
