(** Generic retry with exponential backoff.

    {!with_backoff} re-runs a failing thunk with exponentially growing,
    deterministically jittered delays — replaying a campaign with the
    same seed replays the same delay sequence.  Its users are the native
    backend's cc spawn and [rpcc run --retries]. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  base_delay : float;  (** seconds before the first retry *)
  max_delay : float;  (** backoff ceiling, pre-jitter *)
  jitter : float;  (** jitter fraction in [0, 1]: delay *= 1 + jitter·u *)
}

val default_policy : policy
(** 3 attempts, 50 ms base, 2 s ceiling, 25 % jitter. *)

val delay_for : policy -> seed:int -> attempt:int -> float
(** Backoff delay before retry [attempt] (1-based): [base·2^(attempt-1)]
    clamped to [max_delay], stretched by the policy's jitter fraction drawn
    from a hash of [(seed, attempt)] — deterministic, so replays and tests
    see identical schedules. *)

val with_backoff :
  ?policy:policy ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  ?on_retry:(attempt:int -> delay:float -> exn -> unit) ->
  (unit -> 'a) ->
  ('a, exn) result
(** Run the thunk; on an exception, sleep the {!delay_for} schedule and
    re-run, up to [policy.max_attempts] total attempts.  Returns the first
    success or the {e last} exception.  [on_retry] fires before each
    re-attempt (attempt number of the {e upcoming} try, 2-based).
    @param sleep defaults to [Unix.sleepf]; inject for tests. *)
