(** Fault-injection harness for the hardened pipeline (see [rpcc fuzz]).

    Compiles programs from {!Gen} while injecting IL corruption or an
    exception inside a guarded pass, via
    {!Rp_driver.Pipeline.fault_hook}, and asserts the isolation,
    validation, and oracle machinery contains every fault: rolled back
    and recorded, or provably behaviour-preserving.  Anything else is an
    escape. *)

(** The IL corruptions {!mutate} plants: the classes [gen-fuzz --inject]
    and [reduce --inject] accept. *)
type mutation =
  | Drop_store  (** delete one sStore/Store instruction *)
  | Shrink_tagset  (** empty the tag set of one pointer operation *)
  | Dangling_target  (** retarget one terminator at a missing block *)
  | Bad_register  (** insert an instruction using out-of-range registers *)

type fault_class =
  | Mutation of mutation
  | Pass_exception  (** raise from inside a pass body *)

val all_mutations : mutation list
val mutation_name : mutation -> string

val class_name : fault_class -> string
(** A mutation's class is named by {!mutation_name}. *)

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
  trials : int;  (** the requested trial count, printed for replay *)
  quarantined : int;  (** requested trials that returned no outcome *)
  classes : (fault_class * class_stats) list;
  mutable escapes : string list;
}

(** Apply a mutation to a program at a random site (used directly by the
    unit tests and by [gen-fuzz --inject]); [None] when the program offers
    no site for it. *)
val mutate : Random.State.t -> mutation -> Rp_ir.Program.t -> string option

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

type trial = fault_class * outcome

val campaign_id : seed:int -> string list
(** The campaign's [~id] for {!Rp_cli.run_campaign}: what a journal
    record's digest covers besides the pipeline version. *)

val trial : seed:int -> should_stop:(unit -> bool) -> int -> trial
(** [trial ~seed ~should_stop i] compiles [Gen.program_of_seed ~seed
    ~trial:i] with one fault planted and classifies the pipeline's
    reaction.  Every random choice comes from [(seed, i)], so its result
    depends on nothing else, and a campaign's report is identical at any
    [--jobs] level and across resumes.  A surviving mutation is compared
    against the same program compiled by {!fuzz_config} without its
    validators. *)

val report : seed:int -> trials:int -> trial list -> report
(** [report ~seed ~trials finished] folds the finished trials, in list
    order, into the report of a campaign of [trials] requested trials;
    the ones missing from [finished] count as quarantined. *)

val trial_json : trial -> Rp_support.Json.t
(** Serialize a trial's result as a campaign-journal payload. *)

val trial_of_json : Rp_support.Json.t -> trial option
(** Inverse of {!trial_json}; [None] on malformed input. *)

val total_escapes : report -> int

val pp_report : Format.formatter -> report -> unit
(** The header with the replay command, one row per class, the escapes,
    and a summary line [; seed=S, N trials, Q quarantined, E escapes]. *)
