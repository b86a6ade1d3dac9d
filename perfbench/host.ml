(** Host context recorded beside each run's metrics, and the host-speed
    calibration every timed metric is normalised by.

    The context — CPU count, kernel, C compiler, load, steal time — is
    not a metric, but it lets a reader tell a slow host from a slow
    change.  The calibration is a fixed-work loop of the benchmark's
    own, timed right before and right after each timed unit (a grid
    campaign, a serve session, a set-up).  The dev VM's vCPUs change
    speed for minutes at a time, often with little steal time to show
    for it, and CPU time slows with wall time, so only a loop timed
    beside the work can tell a slow host from a slow change.  The loop
    is the benchmark's code, not the program's, so a change to the
    program does not move it.  It corrects only part of a slow spell:
    it slows less than the memory-heavy work it calibrates. *)

module Json = Rp_support.Json

let read_first_line path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  with Sys_error _ | End_of_file -> ""

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

(** Steal jiffies summed over all CPUs: field 8 of the [cpu] line of
    /proc/stat. *)
let steal () =
  match words (read_first_line "/proc/stat") with
  | "cpu" :: fields when List.length fields >= 8 -> int_of_string (List.nth fields 7)
  | _ -> 0

let loadavg () =
  match words (read_first_line "/proc/loadavg") with
  | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
  | _ -> ""

(** Milliseconds for one pass of a fixed integer loop. *)
let pass () =
  let t0 = Span.now_ns () in
  let x = ref 1 in
  for i = 1 to 4_000_000 do
    x := ((!x * 1103515245) + i) land 0xFFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (Span.now_ns () - t0) /. 1e6

(** What one pass takes on the reference host: the 2-vCPU dev VM
    (Intel Xeon, 2.0 GHz) while it ran at full speed.  A time scaled by
    [reference_ms / pass time] reads as it would have on that host. *)
let reference_ms = 6.7

(* every calibration of this run, for the report *)
let samples : float list ref = ref []

(** The mean of [passes] passes.  A mean, not a median: a pass that loses
    its vCPU to the hypervisor for a while slows the work beside it just
    as much, and the mean keeps that share. *)
let calibrate ~passes =
  let ms = Array.fold_left ( +. ) 0. (Array.init passes (fun _ -> pass ())) in
  let ms = ms /. float_of_int passes in
  samples := ms :: !samples;
  ms

(** Run [f] between two calibrations of [passes] passes each (11 by
    default, about 75 ms; short work takes fewer).  Returns its result
    and the factor that rescales a time measured during [f] to the
    reference host's speed. *)
let around ?(passes = 11) f =
  let before = calibrate ~passes in
  let x = f () in
  let after = calibrate ~passes in
  (x, reference_ms /. ((before +. after) /. 2.))

type probe = { nproc : string; uname : string; cc : string; load : string }

let probe () =
  {
    nproc = Proc.capture "nproc";
    uname = Proc.capture "uname -srvm";
    cc = Proc.capture "cc --version 2>/dev/null";
    load = loadavg ();
  }

let json p ~scratch ~steal_jiffies =
  let cal = Array.of_list !samples in
  let stat f = if cal = [||] then Json.Null else Json.Float (f cal) in
  Json.Obj
    [
      ("nproc", Json.Str p.nproc);
      ("uname", Json.Str p.uname);
      ("cc", Json.Str p.cc);
      ("loadavg", Json.Str p.load);
      ("scratch_fs", Json.Str (Proc.capture ("stat -f -c %T " ^ scratch)));
      ("steal_jiffies", Json.Int steal_jiffies);
      ("calibrations", Json.Int (Array.length cal));
      ("calibration_ms_min", stat (Array.fold_left Float.min Float.infinity));
      ("calibration_ms_median", stat Stats.median);
      ("calibration_ms_max", stat (Array.fold_left Float.max Float.neg_infinity));
      ("calibration_reference_ms", Json.Float reference_ms);
    ]
