(** Fault-injection harness for the hardened pipeline.

    Each trial compiles a program from {!Gen}, the generator [gen-fuzz]
    draws from, while injecting one fault {e inside} a guarded pass,
    through {!Rp_driver.Pipeline.fault_hook} — exactly where a buggy
    transformation would corrupt the IL.  The fault is either a structural
    or semantic IL mutation (emulating a miscompiling pass) or a raised
    exception (emulating a crashing pass).  The harness then asserts that
    the isolation/validation machinery reacts correctly:

    - structural faults (dangling branch targets, out-of-range registers)
      must be rolled back — flagged by the post-pass validator or by the
      pass itself crashing on the broken IL;
    - semantic faults (dropped stores, shrunk tag sets) must be rolled back
      by the execution oracle — or be provably benign, i.e. the finished
      program still behaves bit-identically to a clean compile;
    - injected pass exceptions must never escape [optimize], must appear in
      [degraded], and must leave the compile bit-identical to the same
      configuration with that pass disabled.

    Any other outcome is an {e escape}: the mutation survived to the final
    program and changed its behaviour undetected.  One escape fails the
    campaign (exit code 1 under [rpcc fuzz]). *)

open Rp_ir
module Pipeline = Rp_driver.Pipeline
module Config = Rp_driver.Config
module Interp = Rp_exec.Interp
module R = Random.State

type mutation =
  | Drop_store  (** delete one sStore/Store instruction *)
  | Shrink_tagset  (** empty the tag set of one pointer operation *)
  | Dangling_target  (** retarget one terminator at a missing block *)
  | Bad_register  (** insert an instruction using out-of-range registers *)

type fault_class =
  | Mutation of mutation
  | Pass_exception  (** raise from inside a pass body *)

let all_mutations = [ Drop_store; Shrink_tagset; Dangling_target; Bad_register ]

let all_classes =
  List.map (fun m -> Mutation m) all_mutations @ [ Pass_exception ]

let mutation_name = function
  | Drop_store -> "drop_store"
  | Shrink_tagset -> "shrink_tagset"
  | Dangling_target -> "dangling_target"
  | Bad_register -> "bad_register"

let class_name = function
  | Mutation m -> mutation_name m
  | Pass_exception -> "pass_exception"

let class_of_string s = List.find_opt (fun c -> class_name c = s) all_classes

type class_stats = {
  mutable injected : int;  (** trials where the fault actually landed *)
  mutable skipped : int;  (** no mutation site at the chosen pass point *)
  mutable caught_validation : int;
  mutable caught_oracle : int;
  mutable caught_exception : int;  (** rolled back via a raised exception *)
  mutable benign : int;  (** survived but provably behaviour-preserving *)
  mutable escaped : int;
}

let zero_stats () =
  {
    injected = 0;
    skipped = 0;
    caught_validation = 0;
    caught_oracle = 0;
    caught_exception = 0;
    benign = 0;
    escaped = 0;
  }

type report = {
  seed : int;  (** the campaign's RNG seed, for replay *)
  trials : int;  (** the campaign's requested trial count, for replay *)
  quarantined : int;  (** requested trials that returned no outcome *)
  classes : (fault_class * class_stats) list;
  mutable escapes : string list;  (** descriptions, newest first *)
}

let stats_for r c = List.assoc c r.classes

(* ------------------------------------------------------------------ *)
(* IL mutations                                                        *)
(* ------------------------------------------------------------------ *)

(** All (func, block, index) positions whose instruction satisfies [pred]. *)
let instr_sites (p : Program.t) pred =
  let acc = ref [] in
  Program.iter_funcs
    (fun f ->
      Func.iter_blocks
        (fun (b : Block.t) ->
          List.iteri
            (fun i ins -> if pred ins then acc := (f, b, i) :: !acc)
            b.Block.instrs)
        f)
    p;
  !acc

let all_blocks (p : Program.t) =
  let acc = ref [] in
  Program.iter_funcs
    (fun f -> Func.iter_blocks (fun (b : Block.t) -> acc := (f, b) :: !acc) f)
    p;
  !acc

let choose rng l = List.nth l (R.int rng (List.length l))
let pick rng = function [] -> None | l -> Some (choose rng l)

let replace_at b idx i' =
  b.Block.instrs <- List.mapi (fun j i -> if j = idx then i' else i) b.Block.instrs

(** Apply [m] to [p] at a random site.  Returns a description of what was
    mutated, or [None] when the program (at this pipeline point) offers no
    site for the mutation. *)
let mutate rng (m : mutation) (p : Program.t) : string option =
  match m with
  | Drop_store -> (
    match pick rng (instr_sites p Instr.is_store) with
    | None -> None
    | Some (f, b, idx) ->
      b.Block.instrs <- List.filteri (fun j _ -> j <> idx) b.Block.instrs;
      Some (Printf.sprintf "dropped store %d in %s/%s" idx f.Func.name b.Block.label))
  | Shrink_tagset -> (
    let site =
      pick rng
        (instr_sites p (function
          | Instr.Loadg _ | Instr.Storeg _ -> true
          | _ -> false))
    in
    match site with
    | None -> None
    | Some (f, b, idx) ->
      let i' =
        match List.nth b.Block.instrs idx with
        | Instr.Loadg (d, a, _) -> Instr.Loadg (d, a, Tagset.empty)
        | Instr.Storeg (a, s, _) -> Instr.Storeg (a, s, Tagset.empty)
        | i -> i
      in
      replace_at b idx i';
      Some
        (Printf.sprintf "emptied tag set of op %d in %s/%s" idx f.Func.name
           b.Block.label))
  | Dangling_target -> (
    match pick rng (all_blocks p) with
    | None -> None
    | Some (f, b) ->
      let nowhere = "__fuzz_nowhere__" in
      (b.Block.term <-
         (match b.Block.term with
         | Instr.Cbr (r, _, l2) -> Instr.Cbr (r, nowhere, l2)
         | Instr.Jump _ | Instr.Ret _ -> Instr.Jump nowhere));
      Some (Printf.sprintf "retargeted %s/%s at a missing block" f.Func.name b.Block.label))
  | Bad_register -> (
    match pick rng (all_blocks p) with
    | None -> None
    | Some (f, b) ->
      let bad = f.Func.nreg + 7 in
      let idx =
        match b.Block.instrs with
        | [] -> 0
        | l -> R.int rng (List.length l + 1)
      in
      b.Block.instrs <-
        List.filteri (fun j _ -> j < idx) b.Block.instrs
        @ [ Instr.Copy (bad, bad + 2) ]
        @ List.filteri (fun j _ -> j >= idx) b.Block.instrs;
      Some
        (Printf.sprintf "inserted copy of r%d (nreg=%d) in %s/%s" bad
           f.Func.nreg f.Func.name b.Block.label))

(* ------------------------------------------------------------------ *)
(* Trials                                                              *)
(* ------------------------------------------------------------------ *)

(** The campaign configuration: every optional pass on, full translation
    validation (structural + oracle) so every detector is armed. *)
let fuzz_config =
  {
    Config.default with
    Config.dse = true;
    ptr_promote = true;
    verify_passes = true;
    oracle = true;
  }

(** Guarded passes at which IL mutations are injected.  Early and mid
    pipeline points, where stores and pointer operations still exist. *)
let mutation_passes =
  [ "clean"; "analysis"; "promotion"; "valnum"; "constprop"; "licm"; "pre" ]

(** Passes with an exact pass-disabled twin in {!Config.t} — the equivalence
    the exception trials assert. *)
let exception_passes =
  [
    ("analysis", { fuzz_config with Config.analysis = Config.Anone });
    ("promotion", { fuzz_config with Config.promote = false });
    ("dse", { fuzz_config with Config.dse = false });
    ("ptr_promotion", { fuzz_config with Config.ptr_promote = false });
  ]

let results_equal (a : Interp.result) (b : Interp.result) =
  a.Interp.output = b.Interp.output
  && a.Interp.checksum = b.Interp.checksum
  && a.Interp.total = b.Interp.total

(** What one trial observed.  Trials are pure with respect to the report —
    they run (possibly on a worker domain) and return an outcome, which the
    campaign folds into the report in trial-index order, so the report and
    its escape list are identical at any [jobs] level. *)
type outcome =
  | Caught of [ `Validation | `Oracle | `Exception ]
  | Benign
  | Skipped
  | Escaped of string

(** One IL-mutation trial: compile [src] under full validation, mutating
    the IL at [target] via the fault hook; classify the pipeline's
    reaction.  [name] identifies the trial in an escape. *)
let mutation_trial ~should_stop rng m target ~name src : outcome =
  let p = Rp_irgen.Irgen.compile_source src in
  let applied = ref None in
  let run () =
    Pipeline.with_fault_hook
      (fun pass ->
        if pass = target && !applied = None then applied := mutate rng m p)
      (fun () -> Pipeline.optimize ~config:fuzz_config p)
  in
  match run () with
  | exception e ->
    Escaped
      (Printf.sprintf "%s@%s on %s: exception escaped optimize: %s"
         (mutation_name m) target name (Printexc.to_string e))
  | stats -> (
    match !applied with
    | None -> Skipped
    | Some desc -> (
      match List.assoc_opt target stats.Pipeline.degraded with
      | Some (Pipeline.Invalid_il _) -> Caught `Validation
      | Some (Pipeline.Changed _ | Pipeline.Count_regressed _) -> Caught `Oracle
      | Some (Pipeline.Raised _ | Pipeline.Budget_exhausted _) ->
        Caught `Exception
      | None ->
        (* not rolled back: only acceptable if the finished program is
           still observably identical to a clean compile, the fuzz
           configuration without its validators *)
        let (_, _, baseline) =
          Pipeline.compile_and_run ~should_stop
            ~config:
              { fuzz_config with Config.verify_passes = false; oracle = false }
            src
        in
        let same =
          match Interp.run ~should_stop p with
          | exception Interp.Error _ -> false
          | r ->
            r.Interp.output = baseline.Interp.output
            && r.Interp.checksum = baseline.Interp.checksum
        in
        if same then Benign
        else
          Escaped
            (Printf.sprintf "%s@%s on %s: %s survived undetected"
               (mutation_name m) target name desc)))

(** One pass-exception trial: a pass that raises must be contained,
    recorded, and behave exactly like the pass-disabled configuration. *)
let exception_trial ~should_stop rng ~name src : outcome =
  let (target, disabled_config) = choose rng exception_passes in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Escaped (Printf.sprintf "pass_exception@%s on %s: %s" target name m))
      fmt
  in
  let compile () =
    Pipeline.with_fault_hook
      (fun pass -> if pass = target then failwith "injected pass fault")
      (fun () -> Pipeline.compile_and_run ~config:fuzz_config ~should_stop src)
  in
  match compile () with
  | exception e ->
    fail "exception escaped the compile: %s" (Printexc.to_string e)
  | (_, stats, r) -> (
    match List.assoc_opt target stats.Pipeline.degraded with
    | None -> fail "fault not recorded in degraded"
    | Some _ ->
      let (_, _, r0) =
        Pipeline.compile_and_run ~config:disabled_config ~should_stop src
      in
      if results_equal r r0 then Caught `Exception
      else fail "result differs from the pass-disabled configuration")

(* ------------------------------------------------------------------ *)
(* Journal serialization                                               *)
(* ------------------------------------------------------------------ *)

module Json = Rp_support.Json

type trial = fault_class * outcome

(** One finished trial as a journal payload; {!trial_of_json} inverts it.
    Outcomes round-trip exactly, so a resumed campaign folds a replayed
    trial identically to having run it. *)
let trial_json ((cls, outcome) : trial) : Json.t =
  let rest =
    match outcome with
    | Caught `Validation -> [ ("kind", Json.Str "caught_validation") ]
    | Caught `Oracle -> [ ("kind", Json.Str "caught_oracle") ]
    | Caught `Exception -> [ ("kind", Json.Str "caught_exception") ]
    | Benign -> [ ("kind", Json.Str "benign") ]
    | Skipped -> [ ("kind", Json.Str "skipped") ]
    | Escaped desc ->
      [ ("kind", Json.Str "escaped"); ("desc", Json.Str desc) ]
  in
  Json.Obj (("cls", Json.Str (class_name cls)) :: rest)

let trial_of_json (j : Json.t) : trial option =
  let str k =
    match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
  in
  match (Option.bind (str "cls") class_of_string, str "kind") with
  | Some cls, Some kind ->
    let outcome =
      match kind with
      | "caught_validation" -> Some (Caught `Validation)
      | "caught_oracle" -> Some (Caught `Oracle)
      | "caught_exception" -> Some (Caught `Exception)
      | "benign" -> Some Benign
      | "skipped" -> Some Skipped
      | "escaped" -> Option.map (fun d -> Escaped d) (str "desc")
      | _ -> None
    in
    Option.map (fun o -> (cls, o)) outcome
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

(* The programs come from [Gen], so the id names it: a journal of the
   campaign that drew from a fixed corpus carries another digest and is
   refused rather than resumed. *)
let campaign_id ~seed = [ "fuzz"; "gen"; string_of_int seed ]

(** Trial [i] of campaign [seed], self-contained: its program is
    [Gen.program_of_seed ~seed ~trial:i] and it draws every other random
    choice from its own [R.make [| seed; i |]] stream, so a trial's
    behaviour depends only on [(seed, i)] — never on which domain ran it
    or what other trials did.  That is what makes [--jobs] replay-stable
    and lets [--seed S --trials N] reproduce any campaign exactly. *)
let trial ~seed ~should_stop i : trial =
  let rng = R.make [| seed; i |] in
  let src = Gen.program_of_seed ~seed ~trial:i in
  let name = Printf.sprintf "trial %d" i in
  let cls = choose rng all_classes in
  let outcome =
    match cls with
    | Pass_exception -> exception_trial ~should_stop rng ~name src
    | Mutation m ->
      let target = choose rng mutation_passes in
      mutation_trial ~should_stop rng m target ~name src
  in
  (cls, outcome)

(** Fold one trial's outcome into the report. *)
let record report (cls, outcome) =
  let st = stats_for report cls in
  match outcome with
  | Skipped -> st.skipped <- st.skipped + 1
  | Caught k ->
    st.injected <- st.injected + 1;
    (match k with
    | `Validation -> st.caught_validation <- st.caught_validation + 1
    | `Oracle -> st.caught_oracle <- st.caught_oracle + 1
    | `Exception -> st.caught_exception <- st.caught_exception + 1)
  | Benign ->
    st.injected <- st.injected + 1;
    st.benign <- st.benign + 1
  | Escaped desc ->
    st.injected <- st.injected + 1;
    st.escaped <- st.escaped + 1;
    report.escapes <- desc :: report.escapes

let report ~seed ~trials finished =
  let r =
    {
      seed;
      trials;
      quarantined = trials - List.length finished;
      classes = List.map (fun c -> (c, zero_stats ())) all_classes;
      escapes = [];
    }
  in
  List.iter (record r) finished;
  r

let total_escapes r =
  List.fold_left (fun acc (_, s) -> acc + s.escaped) 0 r.classes

let pp_report ppf (r : report) =
  Fmt.pf ppf "campaign: seed=%d trials=%d (replay: rpcc fuzz --seed %d \
              --trials %d)@."
    r.seed r.trials r.seed r.trials;
  Fmt.pf ppf "%-16s %8s %7s %10s %6s %9s %6s %7s@." "class" "injected"
    "skipped" "validation" "oracle" "exception" "benign" "escaped";
  List.iter
    (fun (c, s) ->
      Fmt.pf ppf "%-16s %8d %7d %10d %6d %9d %6d %7d@." (class_name c)
        s.injected s.skipped s.caught_validation s.caught_oracle
        s.caught_exception s.benign s.escaped)
    r.classes;
  List.iter
    (fun e -> Fmt.pf ppf "ESCAPE [seed=%d]: %s@." r.seed e)
    (List.rev r.escapes);
  Fmt.pf ppf "; seed=%d, %d trials, %d quarantined, %d escapes@." r.seed
    r.trials r.quarantined (total_escapes r)
