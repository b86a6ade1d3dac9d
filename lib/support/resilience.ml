(** Supervision-layer failure counters.  See resilience.mli. *)

type outcome =
  | Timeout
  | Retry
  | Resumed
  | Crash
  | Quarantine

type t = {
  timeouts : int Atomic.t;
  retries : int Atomic.t;
  resumed : int Atomic.t;
  crashed : int Atomic.t;
  quarantined : int Atomic.t;
}

let create () =
  {
    timeouts = Atomic.make 0;
    retries = Atomic.make 0;
    resumed = Atomic.make 0;
    crashed = Atomic.make 0;
    quarantined = Atomic.make 0;
  }

let cell t = function
  | Timeout -> t.timeouts
  | Retry -> t.retries
  | Resumed -> t.resumed
  | Crash -> t.crashed
  | Quarantine -> t.quarantined

let tick t o = Atomic.incr (cell t o)
let count t o = Atomic.get (cell t o)

let all = [ Timeout; Retry; Resumed; Crash; Quarantine ]
let any t = List.exists (fun o -> count t o > 0) all

let to_json t =
  Json.Obj
    [
      ("timeouts", Json.Int (count t Timeout));
      ("retries", Json.Int (count t Retry));
      ("resumed", Json.Int (count t Resumed));
      ("crashed", Json.Int (count t Crash));
      ("quarantined", Json.Int (count t Quarantine));
    ]

let pp ppf t =
  Format.fprintf ppf
    "timeouts=%d retries=%d resumed=%d crashed=%d quarantined=%d"
    (count t Timeout) (count t Retry) (count t Resumed) (count t Crash)
    (count t Quarantine)
