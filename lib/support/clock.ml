(** Monotonic time for budgets, deadlines and pass timings.

    Readings come from [clock_gettime(CLOCK_MONOTONIC)], through
    [bechamel.monotonic_clock]: they never step backwards when the
    system clock is corrected (NTP, manual resets), so a deadline cannot
    fire early and a timer cannot go negative, on any domain.  They count
    seconds from an arbitrary fixed origin (on Linux, boot), not from the
    Unix epoch: only differences between readings, and deadlines built
    as [now () +. budget], mean anything. *)

(** Current reading, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** Seconds elapsed since [t0] (a previous {!now} reading); never
    negative. *)
let elapsed t0 = now () -. t0
