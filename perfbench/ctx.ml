(** What every workload needs: where the programs under test live, the
    committed references, and the run's private scratch. *)

type t = {
  bench : string;  (** absolute path of [bench/main.exe] *)
  rpcc : string;  (** absolute path of [rpcc] *)
  refs : (string * int) list;  (** suite program → [O0] checksum *)
  seed : int;
  seconds : float;
  scratch : string;
      (** this run's private directory, relative to the checkout root;
          deleted when the run ends *)
}

let abs path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
  else path

(** A fresh subdirectory of the run's scratch. *)
let subdir ctx name =
  let d = Filename.concat ctx.scratch name in
  Proc.rm_rf d;
  Proc.mkdir_p d;
  d

let ms_of_ns ns = float_of_int ns /. 1e6

(** A metric as reported: name, value, unit. *)
type metric = string * float * string

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  sound : bool;
      (** false when something other than a counted operation went
          wrong, e.g. two campaigns of one run disagreeing on counts *)
  notes : (string * Rp_support.Json.t) list;  (** report-only context *)
}
