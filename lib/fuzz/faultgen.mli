(** Fault-injection harness for the hardened pipeline (see [rpcc fuzz]).

    Injects IL corruption and exceptions inside guarded passes via
    {!Rp_driver.Pipeline.fault_hook} and asserts the isolation, validation,
    and oracle machinery contains every fault: rolled back and recorded, or
    provably behaviour-preserving.  Anything else is an escape. *)

type fault_class =
  | Drop_store  (** delete one sStore/Store instruction *)
  | Shrink_tagset  (** empty the tag set of one pointer operation *)
  | Dangling_target  (** retarget one terminator at a missing block *)
  | Bad_register  (** insert an instruction using out-of-range registers *)
  | Pass_exception  (** raise from inside a pass body *)
  | Native_cc_fail
      (** the C compiler cannot be executed: the degradation ladder must
          descend to the interpreter rung *)
  | Native_truncated_bin
      (** a cached native binary loses its tail under a {e valid} CRC:
          only the native layer itself can detect it (exec/trailer
          failure), and the interpreter rung must answer *)
  | Native_bad_trailer
      (** a cached "binary" runs fine but prints garbage instead of the
          result trailer: the strict parser must reject, never invent
          counts, and the interpreter rung must answer *)
  | Native_poisoned_cas
      (** a cached binary's bytes rot under a stale CRC: the store must
          quarantine on read and the miss recompile cleanly *)

val all_classes : fault_class list
val class_name : fault_class -> string

val class_of_string : string -> fault_class option
(** Inverse of {!class_name}; [None] for unknown names. *)

type class_stats = {
  mutable injected : int;
  mutable skipped : int;  (** no mutation site at the chosen pass point *)
  mutable caught_validation : int;
  mutable caught_oracle : int;
  mutable caught_exception : int;
  mutable benign : int;  (** survived but provably behaviour-preserving *)
  mutable escaped : int;
}

type report = {
  seed : int;  (** the campaign's RNG seed, printed in every report *)
  classes : (fault_class * class_stats) list;
  mutable trials : int;
  mutable escapes : string list;
}

(** Apply a fault class to a program at a random site (used directly by the
    unit tests); [None] when the program offers no site for the class. *)
val mutate :
  Random.State.t -> fault_class -> Rp_ir.Program.t -> string option

(** The campaign configuration: every optional pass on, structural and
    oracle validation armed. *)
val fuzz_config : Rp_driver.Config.t

(** What one trial observed.  Trials are pure with respect to the
    report: they run (possibly on a worker domain) and return an outcome,
    which the campaign folds into the report in trial-index order. *)
type outcome =
  | Caught of [ `Validation | `Oracle | `Exception ]
  | Benign
  | Skipped
  | Escaped of string
  | No_site

type trial = fault_class * outcome

val trial : seed:int -> should_stop:(unit -> bool) -> int -> trial
(** [trial ~seed] compiles and runs every {!Corpus} program once — the
    baselines its trials compare against — and returns the campaign's
    job: trial [i] draws every random choice from its own
    [(seed, i)]-keyed stream, so its result depends on nothing else, and
    a campaign's report is identical at any [--jobs] level and across
    resumes.  Apply it to [~seed] once per campaign. *)

val report : seed:int -> trial list -> report
(** Fold finished trials into a report, in list order. *)

val trial_json : trial -> Rp_support.Json.t
(** Serialize a trial's result as a campaign-journal payload. *)

val trial_of_json : Rp_support.Json.t -> trial option
(** Inverse of {!trial_json}; [None] on malformed input. *)

val total_escapes : report -> int
val pp_report : Format.formatter -> report -> unit
