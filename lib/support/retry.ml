(** Generic retry with exponential backoff.  See retry.mli for the
    contract. *)

type policy = {
  max_attempts : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
}

let default_policy =
  { max_attempts = 3; base_delay = 0.05; max_delay = 2.0; jitter = 0.25 }

(* splitmix64 finalizer: a well-mixed hash of (seed, attempt) whose low
   bits drive the jitter draw.  Deterministic across runs and platforms. *)
let mix seed attempt =
  let z = ref (Int64.of_int ((seed * 0x9e3779b9) lxor (attempt * 0x85ebca6b))) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xbf58476d1ce4e5b9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94d049bb133111ebL;
  Int64.logxor !z (Int64.shift_right_logical !z 31)

(** Uniform draw in [0, 1) from the hash of (seed, attempt). *)
let unit_draw seed attempt =
  let bits = Int64.to_int (Int64.shift_right_logical (mix seed attempt) 11) in
  float_of_int bits /. float_of_int (1 lsl 53)

let delay_for p ~seed ~attempt =
  let exp = Float.of_int (max 0 (attempt - 1)) in
  let raw = Float.min p.max_delay (p.base_delay *. Float.pow 2. exp) in
  raw *. (1. +. (p.jitter *. unit_draw seed attempt))

let with_backoff ?(policy = default_policy) ?(seed = 0) ?(sleep = Unix.sleepf)
    ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ()) f =
  let rec go attempt =
    match f () with
    | v -> Ok v
    | exception e ->
      if attempt >= policy.max_attempts then Error e
      else begin
        let delay = delay_for policy ~seed ~attempt in
        on_retry ~attempt:(attempt + 1) ~delay e;
        if delay > 0. then sleep delay;
        go (attempt + 1)
      end
  in
  go 1
