(** Supervision-layer failure counters.  See resilience.mli. *)

type outcome =
  | Timeout
  | Retry
  | Breaker_trip
  | Resumed
  | Crash
  | Quarantine

type t = {
  timeouts : int Atomic.t;
  retries : int Atomic.t;
  breaker_trips : int Atomic.t;
  resumed : int Atomic.t;
  crashed : int Atomic.t;
  quarantined : int Atomic.t;
}

let create () =
  {
    timeouts = Atomic.make 0;
    retries = Atomic.make 0;
    breaker_trips = Atomic.make 0;
    resumed = Atomic.make 0;
    crashed = Atomic.make 0;
    quarantined = Atomic.make 0;
  }

let cell t = function
  | Timeout -> t.timeouts
  | Retry -> t.retries
  | Breaker_trip -> t.breaker_trips
  | Resumed -> t.resumed
  | Crash -> t.crashed
  | Quarantine -> t.quarantined

let tick t o = Atomic.incr (cell t o)
let count t o = Atomic.get (cell t o)
let set t o v = Atomic.set (cell t o) v

let all = [ Timeout; Retry; Breaker_trip; Resumed; Crash; Quarantine ]
let any t = List.exists (fun o -> count t o > 0) all

let merge ~into src =
  List.iter
    (fun o -> ignore (Atomic.fetch_and_add (cell into o) (count src o) : int))
    all

let to_json ?breakers t =
  Json.Obj
    ([
       ("timeouts", Json.Int (count t Timeout));
       ("retries", Json.Int (count t Retry));
       ("breaker_trips", Json.Int (count t Breaker_trip));
       ("resumed", Json.Int (count t Resumed));
       ("crashed", Json.Int (count t Crash));
       ("quarantined", Json.Int (count t Quarantine));
     ]
    @ match breakers with None -> [] | Some b -> [ ("breakers", b) ])

let pp ppf t =
  Format.fprintf ppf
    "timeouts=%d retries=%d breaker_trips=%d resumed=%d crashed=%d \
     quarantined=%d"
    (count t Timeout) (count t Retry) (count t Breaker_trip) (count t Resumed)
    (count t Crash) (count t Quarantine)
