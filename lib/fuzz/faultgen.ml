(** Fault-injection harness for the hardened pipeline.

    Each trial compiles a known-good {!Corpus} program while injecting one
    fault {e inside} a guarded pass, through {!Rp_driver.Pipeline.fault_hook}
    — exactly where a buggy transformation would corrupt the IL.  The fault
    is either a structural or semantic IL mutation (emulating a miscompiling
    pass) or a raised exception (emulating a crashing pass).  The harness
    then asserts that the isolation/validation machinery reacts correctly:

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

type fault_class =
  | Drop_store  (** delete one sStore/Store instruction *)
  | Shrink_tagset  (** empty the tag set of one pointer operation *)
  | Dangling_target  (** retarget one terminator at a missing block *)
  | Bad_register  (** insert an instruction using out-of-range registers *)
  | Pass_exception  (** raise from inside a pass body *)
  | Native_cc_fail  (** the C compiler itself cannot be executed *)
  | Native_truncated_bin  (** a cached native binary loses its tail *)
  | Native_bad_trailer  (** a cached "binary" emits garbage, no trailer *)
  | Native_poisoned_cas  (** a cached binary's bytes rot under a stale CRC *)

let all_classes =
  [
    Drop_store;
    Shrink_tagset;
    Dangling_target;
    Bad_register;
    Pass_exception;
    Native_cc_fail;
    Native_truncated_bin;
    Native_bad_trailer;
    Native_poisoned_cas;
  ]

let class_name = function
  | Drop_store -> "drop_store"
  | Shrink_tagset -> "shrink_tagset"
  | Dangling_target -> "dangling_target"
  | Bad_register -> "bad_register"
  | Pass_exception -> "pass_exception"
  | Native_cc_fail -> "native_cc_fail"
  | Native_truncated_bin -> "native_truncated_bin"
  | Native_bad_trailer -> "native_bad_trailer"
  | Native_poisoned_cas -> "native_poisoned_cas"

let class_of_string = function
  | "drop_store" -> Some Drop_store
  | "shrink_tagset" -> Some Shrink_tagset
  | "dangling_target" -> Some Dangling_target
  | "bad_register" -> Some Bad_register
  | "pass_exception" -> Some Pass_exception
  | "native_cc_fail" -> Some Native_cc_fail
  | "native_truncated_bin" -> Some Native_truncated_bin
  | "native_bad_trailer" -> Some Native_bad_trailer
  | "native_poisoned_cas" -> Some Native_poisoned_cas
  | _ -> None

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
  classes : (fault_class * class_stats) list;
  mutable trials : int;
  mutable escapes : string list;  (** descriptions, newest first *)
}

let stats_for r c = List.assq c r.classes

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

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (R.int rng (List.length l)))

let replace_at b idx i' =
  b.Block.instrs <- List.mapi (fun j i -> if j = idx then i' else i) b.Block.instrs

(** Apply [cls] to [p] at a random site.  Returns a description of what was
    mutated, or [None] when the program (at this pipeline point) offers no
    site for the class. *)
let mutate rng (cls : fault_class) (p : Program.t) : string option =
  match cls with
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
  | Pass_exception | Native_cc_fail | Native_truncated_bin | Native_bad_trailer
  | Native_poisoned_cas ->
    None (* handled by their own trials, not as IL edits *)

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
  && a.Interp.total.Interp.ops = b.Interp.total.Interp.ops
  && a.Interp.total.Interp.loads = b.Interp.total.Interp.loads
  && a.Interp.total.Interp.stores = b.Interp.total.Interp.stores

let with_hook hook f = Pipeline.with_fault_hook hook f

(** What one trial observed.  Trials are pure with respect to the report —
    they run (possibly on a worker domain) and return an outcome, which the
    campaign folds into the report in trial-index order, so the report and
    its escape list are identical at any [jobs] level. *)
type outcome =
  | Caught of [ `Validation | `Oracle | `Exception ]
  | Benign
  | Skipped
  | Escaped of string
  | No_site  (** the trial found nothing to do (no target pass) *)

(** Reasons recorded by the guard start with "validation:" / "oracle:" for
    the two validators; anything else is a caught exception. *)
let classify_reason reason =
  if String.length reason >= 11 && String.sub reason 0 11 = "validation:" then
    `Validation
  else if String.length reason >= 7 && String.sub reason 0 7 = "oracle:" then
    `Oracle
  else `Exception

(** One IL-mutation trial: compile [seed] under full validation, mutating
    the IL at [target] via the fault hook; classify the pipeline's
    reaction. *)
let mutation_trial ?should_stop rng cls target (seed : Corpus.seed)
    (baseline : Interp.result) : outcome =
  let p = Rp_irgen.Irgen.compile_source seed.Corpus.source in
  let applied = ref None in
  let run () =
    with_hook
      (fun name ->
        if name = target && !applied = None then applied := mutate rng cls p)
      (fun () -> Pipeline.optimize ~config:fuzz_config p)
  in
  match run () with
  | exception e ->
    Escaped
      (Printf.sprintf "%s@%s on %s: exception escaped optimize: %s"
         (class_name cls) target seed.Corpus.name (Printexc.to_string e))
  | stats -> (
    match !applied with
    | None -> Skipped
    | Some desc -> (
      match List.assoc_opt target stats.Pipeline.degraded with
      | Some reason -> Caught (classify_reason reason)
      | None ->
        (* not rolled back: only acceptable if the finished program is
           still observably identical to a clean compile *)
        let same =
          match Interp.run ?should_stop p with
          | exception Rp_exec.Value.Runtime_error _ -> false
          | r ->
            r.Interp.output = baseline.Interp.output
            && r.Interp.checksum = baseline.Interp.checksum
        in
        if same then Benign
        else
          Escaped
            (Printf.sprintf "%s@%s on %s: %s survived undetected"
               (class_name cls) target seed.Corpus.name desc)))

(** One pass-exception trial: a pass that raises must be contained,
    recorded, and behave exactly like the pass-disabled configuration. *)
let exception_trial ?should_stop rng (seed : Corpus.seed) : outcome =
  match pick rng exception_passes with
  | None -> No_site
  | Some (target, disabled_config) -> (
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Escaped
            (Printf.sprintf "pass_exception@%s on %s: %s" target
               seed.Corpus.name m))
        fmt
    in
    let compile () =
      with_hook
        (fun name -> if name = target then failwith "injected pass fault")
        (fun () ->
          Pipeline.compile_and_run ~config:fuzz_config ?should_stop
            seed.Corpus.source)
    in
    match compile () with
    | exception e ->
      fail "exception escaped the compile: %s" (Printexc.to_string e)
    | (_, stats, r) -> (
      match List.assoc_opt target stats.Pipeline.degraded with
      | None -> fail "fault not recorded in degraded"
      | Some _ ->
        let (_, _, r0) =
          Pipeline.compile_and_run ~config:disabled_config ?should_stop
            seed.Corpus.source
        in
        if results_equal r r0 then Caught `Exception
        else fail "result differs from the pass-disabled configuration"))

(* ------------------------------------------------------------------ *)
(* Native-backend faults                                               *)
(* ------------------------------------------------------------------ *)

(* These trials attack the compiled-C execution path below the IL: the
   compiler process, the cached binary, and the store that holds it.
   The property under test is the degradation ladder's (native →
   recompile-once → interpreter) end-to-end promise: whatever breaks,
   the job's observable result must equal a clean interpreter run, and
   the breakage must be detected (degradation recorded or the corrupt
   object quarantined), never silently served. *)

module Native = Rp_backend.Native
module Cas = Rp_support.Cas
module Crc32 = Rp_support.Crc32

(* probed once per process ({!Native.find_cc} memoizes); the three
   classes that must first cache a genuine binary are [No_site] on
   hosts without a compiler.  [Native_cc_fail] needs no compiler at
   all — its whole point is running without one. *)
let native_cc = lazy (Native.find_cc ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun f -> rm_rf (Filename.concat path f))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** The store is fresh per trial, so after one priming run it holds
    exactly one [*.native-bin] object — the trial's compiled binary. *)
let bin_object root =
  let objects = Filename.concat root "objects" in
  Array.fold_left
    (fun acc shard ->
      match acc with
      | Some _ -> acc
      | None ->
        let dir = Filename.concat objects shard in
        Array.fold_left
          (fun acc f ->
            match acc with
            | Some _ -> acc
            | None ->
              if Filename.check_suffix f ".native-bin" then
                Some (Filename.concat dir f)
              else None)
          None
          (try Sys.readdir dir with Sys_error _ -> [||]))
    None
    (try Sys.readdir objects with Sys_error _ -> [||])

(** Replace an object's payload keeping the framing {e valid}: magic and
    kind are copied from the existing header, CRC and length recomputed
    over the new payload.  [Cas.get] serves the result without complaint
    — only the native layer's own defenses (trailer parse, output
    re-verification, exec failure) can catch the planted corruption. *)
let replant_object path payload =
  let raw = read_raw path in
  let nl = String.index raw '\n' in
  match String.split_on_char ' ' (String.sub raw 0 nl) with
  | magic :: kind :: _ ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc "%s %s %s %d\n%s" magic kind
          (Crc32.to_hex (Crc32.string payload))
          (String.length payload) payload)
  | _ -> invalid_arg "replant_object: malformed header"

(** Flip the object's last payload byte in place, leaving the now-stale
    CRC: [Cas.get] must quarantine the entry on the next read. *)
let poison_object path =
  let raw = read_raw path in
  let n = String.length raw in
  let b = Bytes.of_string raw in
  Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0xFF));
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc b)

(** One native-backend trial: compile the seed program through the real
    pipeline, plant the class's fault under the execution path, run the
    degradation ladder, and assert (a) the result equals the clean
    interpreter baseline and (b) the fault was detected, not silently
    served. *)
let native_trial ?should_stop rng cls (seed : Corpus.seed)
    (baseline : Interp.result) : outcome =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Escaped (Printf.sprintf "%s on %s: %s" (class_name cls) seed.Corpus.name m))
      fmt
  in
  let (p, _) =
    Pipeline.compile
      ~config:{ fuzz_config with Config.verify_passes = false; oracle = false }
      seed.Corpus.source
  in
  let interp () =
    let t0 = Rp_support.Clock.now () in
    let r = Interp.run ?should_stop p in
    (r, (Rp_support.Clock.now () -. t0) *. 1000.)
  in
  match cls with
  | Native_cc_fail -> (
    (* a compiler that cannot be executed: the ladder must descend all
       the way to the interpreter rung and record why, not abort *)
    let cc =
      Some
        {
          Native.path = "/nonexistent/rpcc-faultgen-cc";
          flags = [];
          identity = "faultgen-broken-cc";
        }
    in
    match Native.run_laddered ~interp ~cc p with
    | exception e -> fail "ladder raised: %s" (Printexc.to_string e)
    | lad ->
      if lad.Native.l_mode <> `Interp then
        fail "broken cc still claimed a native run"
      else if lad.Native.l_degraded = None then
        fail "interpreter fallback not recorded as degradation"
      else if results_equal lad.Native.l_result baseline then Caught `Exception
      else fail "interpreter rung result differs from baseline")
  | Native_truncated_bin | Native_bad_trailer | Native_poisoned_cas -> (
    match Lazy.force native_cc with
    | None -> No_site
    | Some cc -> (
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "rpcc-faultgen-%d-%d" (Unix.getpid ())
             (R.int rng 0x3FFFFFFF))
      in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let cache = Cas.open_ dir in
          (* prime: one honest native run caches the binary *)
          match Native.run_laddered ~cache ~interp ~cc:(Some cc) p with
          | exception e -> fail "priming run raised: %s" (Printexc.to_string e)
          | lad when lad.Native.l_mode <> `Native || lad.Native.l_degraded <> None
            ->
            fail "priming run did not execute natively"
          | _ -> (
            match bin_object dir with
            | None -> fail "priming run cached no binary"
            | Some path -> (
              (match cls with
              | Native_truncated_bin ->
                (* CRC-valid but half a binary: exec (or its trailer)
                   must fail, the recompile rung must repair *)
                let raw = read_raw path in
                let nl = String.index raw '\n' in
                let payload =
                  String.sub raw (nl + 1) (String.length raw - nl - 1)
                in
                replant_object path
                  (String.sub payload 0 (String.length payload / 2))
              | Native_bad_trailer ->
                (* runs fine, prints garbage: the strict trailer parser
                   must reject it rather than invent counts *)
                replant_object path "#!/bin/sh\necho not-a-trailer\n"
              | _ -> poison_object path);
              let quarantined_before = (Cas.stats cache).Cas.quarantined in
              match Native.run_laddered ~cache ~interp ~cc:(Some cc) p with
              | exception e ->
                fail "ladder raised on planted fault: %s" (Printexc.to_string e)
              | lad ->
                if not (results_equal lad.Native.l_result baseline) then
                  fail "result differs from baseline after planted fault"
                else (
                  match cls with
                  | Native_poisoned_cas ->
                    (* the store's own CRC is the detector: the bad
                       object is quarantined and the miss recompiles
                       cleanly, no ladder degradation at all *)
                    if (Cas.stats cache).Cas.quarantined > quarantined_before
                    then Caught `Validation
                    else fail "poisoned object was not quarantined"
                  | _ ->
                    (* CRC-valid corruption is invisible to the store;
                       the ladder itself must notice and recompile *)
                    if lad.Native.l_degraded = None then
                      fail "planted fault was served without detection"
                    else Caught `Exception))))))
  | _ -> No_site

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
    | No_site -> [ ("kind", Json.Str "no_site") ]
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
      | "no_site" -> Some No_site
      | "escaped" -> Option.map (fun d -> Escaped d) (str "desc")
      | _ -> None
    in
    Option.map (fun o -> (cls, o)) outcome
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

(** Trial [i] of campaign [seed], self-contained: draws every random
    choice from its own [R.make [| seed; i |]] stream, so a trial's
    behaviour depends only on [(seed, i)] — never on which domain ran it
    or what other trials did.  That is what makes [--jobs] replay-stable
    and lets [--seed S --trials N] reproduce any campaign exactly. *)
let run_trial ~seed ?should_stop baselines i : trial =
  let rng = R.make [| seed; i |] in
  let (prog, baseline) = List.nth baselines (i mod List.length baselines) in
  let cls = List.nth all_classes (R.int rng (List.length all_classes)) in
  let outcome =
    match cls with
    | Pass_exception -> exception_trial ?should_stop rng prog
    | Native_cc_fail | Native_truncated_bin | Native_bad_trailer
    | Native_poisoned_cas ->
      native_trial ?should_stop rng cls prog baseline
    | _ -> (
      match pick rng mutation_passes with
      | None -> No_site
      | Some target -> mutation_trial ?should_stop rng cls target prog baseline)
  in
  (cls, outcome)

let trial ~seed =
  (* one clean compile+run per corpus program, shared by every trial *)
  let baselines =
    List.map
      (fun (s : Corpus.seed) ->
        let (_, _, r) =
          Pipeline.compile_and_run
            ~config:{ fuzz_config with Config.verify_passes = false; oracle = false }
            s.Corpus.source
        in
        (s, r))
      Corpus.all
  in
  fun ~should_stop i -> run_trial ~seed ~should_stop baselines i

(** Fold one trial's outcome into the report. *)
let record report (cls, outcome) =
  report.trials <- report.trials + 1;
  let st = stats_for report cls in
  match outcome with
  | No_site -> ()
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

let report ~seed trials =
  let r =
    {
      seed;
      classes = List.map (fun c -> (c, zero_stats ())) all_classes;
      trials = 0;
      escapes = [];
    }
  in
  List.iter (record r) trials;
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
    (List.rev r.escapes)
