(** Order statistics over timing samples.  Every summary carries its
    sample count, so a percentile is never quoted without the number of
    samples it rests on. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(** The middle sample, or the mean of the two middle samples. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Nearest-rank percentile: the smallest sample with at least [p]% of
    the samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(** How many samples lie strictly above the nearest-rank [p]th
    percentile's position. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

type summary = {
  n : int;
  p50 : float;
  p99 : float option;  (** [None] when fewer than 10 samples lie beyond it *)
}

let summarize xs =
  let n = Array.length xs in
  {
    n;
    p50 = median xs;
    p99 = (if beyond n 99. >= 10 then Some (percentile xs 99.) else None);
  }
