(** Pipeline-hardening tests: pass isolation + rollback, graceful analysis
    degradation, translation validation, and the fault-injection harness. *)

open Rp_driver
module I = Rp_exec.Interp
module Json = Rp_support.Json
module Faultgen = Rp_fuzz.Faultgen

let demo =
  {|
int total;
int hist[16];

int bump(int *slot, int v) {
  *slot = *slot + v;
  return *slot;
}

int main() {
  int i;
  total = 0;
  for (i = 0; i < 60; i++) {
    total = total + i;
    hist[i % 16] = hist[i % 16] + 1;
    if (i % 7 == 0) bump(&total, 1);
  }
  print_int(total);
  print_int(hist[3]);
  return 0;
}
|}

let results_equal name (a : I.result) (b : I.result) =
  Util.check Alcotest.string (name ^ ": output") a.I.output b.I.output;
  Util.check Alcotest.int (name ^ ": checksum") a.I.checksum b.I.checksum;
  Util.check Alcotest.int (name ^ ": ops") a.I.total.I.ops b.I.total.I.ops;
  Util.check Alcotest.int (name ^ ": loads") a.I.total.I.loads b.I.total.I.loads;
  Util.check Alcotest.int (name ^ ": stores") a.I.total.I.stores
    b.I.total.I.stores

let with_hook hook f = Pipeline.with_fault_hook hook f

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Graceful analysis degradation                                       *)
(* ------------------------------------------------------------------ *)

let degradation_tests =
  let exhausted analysis =
    Util.tc
      (Printf.sprintf "budget exhaustion degrades %s to the none counts"
         (Config.analysis_name analysis))
      (fun () ->
        let starved =
          { Config.default with Config.analysis; analysis_budget = Some 0 }
        in
        let (_, st, r) = Pipeline.compile_and_run ~config:starved demo in
        Util.check Alcotest.bool "converged is false" false
          st.Pipeline.converged;
        Util.check Alcotest.bool "analysis recorded as degraded" true
          (List.mem_assoc "analysis" st.Pipeline.degraded);
        let none = { Config.default with Config.analysis = Config.Anone } in
        let (_, st0, r0) = Pipeline.compile_and_run ~config:none demo in
        Util.check Alcotest.bool "none config converges" true
          st0.Pipeline.converged;
        results_equal "degraded = none" r r0)
  in
  [
    exhausted Config.Amodref;
    exhausted Config.Asteens;
    exhausted Config.Apointer;
    Util.tc "generous budget converges and is not degraded" (fun () ->
        let cfg =
          { Config.default with Config.analysis_budget = Some 1_000_000 }
        in
        let (_, st, r) = Pipeline.compile_and_run ~config:cfg demo in
        Util.check Alcotest.bool "converged" true st.Pipeline.converged;
        Util.check Alcotest.bool "nothing degraded" true
          (st.Pipeline.degraded = []);
        let (_, _, r1) = Pipeline.compile_and_run demo in
        results_equal "budget irrelevant once converged" r r1);
  ]

(* ------------------------------------------------------------------ *)
(* Pass isolation                                                      *)
(* ------------------------------------------------------------------ *)

let isolation_tests =
  let injected pass mk_disabled =
    Util.tc
      (Printf.sprintf "injected %s exception matches the disabled config" pass)
      (fun () ->
        let base =
          { Config.default with Config.dse = true; ptr_promote = true }
        in
        let (_, st, r) =
          with_hook
            (fun name -> if name = pass then failwith "injected")
            (fun () -> Pipeline.compile_and_run ~config:base demo)
        in
        (match List.assoc_opt pass st.Pipeline.degraded with
        | Some (Pipeline.Raised m) ->
          Util.check Alcotest.bool "reason mentions the fault" true
            (contains m "injected")
        | Some r ->
          Alcotest.failf "%s rolled back for %a" pass Pipeline.pp_reason r
        | None -> Alcotest.fail (pass ^ " not recorded as degraded"));
        let (_, st0, r0) =
          Pipeline.compile_and_run ~config:(mk_disabled base) demo
        in
        Util.check Alcotest.bool "disabled config is healthy" true
          (st0.Pipeline.degraded = []);
        results_equal "faulted = disabled" r r0)
  in
  [
    injected "promotion" (fun c -> { c with Config.promote = false });
    injected "dse" (fun c -> { c with Config.dse = false });
    injected "ptr_promotion" (fun c -> { c with Config.ptr_promote = false });
    injected "analysis" (fun c -> { c with Config.analysis = Config.Anone });
    Util.tc "a crashing optimizer pass never kills the compile" (fun () ->
        (* valnum has no config twin; rollback must still preserve
           behaviour relative to a clean compile *)
        let (_, st, r) =
          with_hook
            (fun name -> if name = "valnum" then raise Not_found)
            (fun () -> Pipeline.compile_and_run demo)
        in
        Util.check Alcotest.bool "valnum degraded" true
          (List.mem_assoc "valnum" st.Pipeline.degraded);
        let (_, _, r0) = Pipeline.compile_and_run demo in
        Util.check Alcotest.string "same output" r0.I.output r.I.output;
        Util.check Alcotest.int "same checksum" r0.I.checksum r.I.checksum);
    Util.tc "rollback restores the exact pre-pass IL" (fun () ->
        let p = Util.front demo in
        let before = Rp_ir.Serial.write p in
        let snap = Rp_ir.Program.snapshot p in
        (* trash the program thoroughly, then restore *)
        let rng = Random.State.make [| 7 |] in
        ignore (Faultgen.mutate rng Faultgen.Drop_store p);
        ignore (Faultgen.mutate rng Faultgen.Dangling_target p);
        ignore (Faultgen.mutate rng Faultgen.Bad_register p);
        Rp_ir.Program.restore p snap;
        Util.check Alcotest.string "IL round-trips through rollback" before
          (Rp_ir.Serial.write p));
  ]

(* ------------------------------------------------------------------ *)
(* Translation validation                                              *)
(* ------------------------------------------------------------------ *)

let validation_tests =
  [
    Util.tc "verify-passes validates every pass on a healthy compile"
      (fun () ->
        let cfg = { Config.default with Config.verify_passes = true } in
        let (_, st, r) = Pipeline.compile_and_run ~config:cfg demo in
        Util.check Alcotest.bool "all passes validated" true
          (st.Pipeline.validated_passes
          = List.length
              (List.filter (fun (n, _) -> n <> "frontend" && n <> "validate")
                 st.Pipeline.timings));
        Util.check Alcotest.bool "nothing degraded" true
          (st.Pipeline.degraded = []);
        let (_, _, r0) = Pipeline.compile_and_run demo in
        results_equal "verification is observation-free" r r0);
    Util.tc "oracle mode validates every pass on a healthy compile" (fun () ->
        let cfg = { Config.default with Config.oracle = true } in
        let (_, st, _) = Pipeline.compile_and_run ~config:cfg demo in
        Util.check Alcotest.bool "validated" true
          (st.Pipeline.validated_passes > 0);
        Util.check Alcotest.bool "nothing degraded" true
          (st.Pipeline.degraded = []));
    Util.tc "validator rolls back a pass that emits ill-formed IL" (fun () ->
        let p = Util.front demo in
        let rng = Random.State.make [| 11 |] in
        let cfg = { Config.default with Config.verify_passes = true } in
        let st =
          with_hook
            (fun name ->
              if name = "promotion" then
                ignore (Faultgen.mutate rng Faultgen.Bad_register p))
            (fun () -> Pipeline.optimize ~config:cfg p)
        in
        (match List.assoc_opt "promotion" st.Pipeline.degraded with
        | Some (Pipeline.Invalid_il _) -> ()
        | Some r ->
          Alcotest.failf "not flagged by the validator: %a" Pipeline.pp_reason
            r
        | None -> Alcotest.fail "corrupted pass not degraded");
        (* the rolled-back program must still be valid and runnable *)
        Rp_ir.Validate.assert_ok p;
        ignore (I.run p : I.result));
    Util.tc "oracle rolls back a miscompiling pass and names it" (fun () ->
        let p = Util.front demo in
        let rng = Random.State.make [| 13 |] in
        let st =
          with_hook
            (fun name ->
              if name = "licm" then
                ignore (Faultgen.mutate rng Faultgen.Shrink_tagset p))
            (fun () ->
              Pipeline.optimize ~config:Faultgen.fuzz_config p)
        in
        match List.assoc_opt "licm" st.Pipeline.degraded with
        | Some (Pipeline.Changed _ | Pipeline.Count_regressed _) -> ()
        | Some r ->
          Alcotest.failf "not flagged by the oracle: %a" Pipeline.pp_reason r
        | None -> Alcotest.fail "miscompiled pass not degraded");
  ]

(* ------------------------------------------------------------------ *)
(* Fault-injection harness                                             *)
(* ------------------------------------------------------------------ *)

let fuzz_tests =
  [
    Util.tc_slow "a fuzz campaign contains every fault class" (fun () ->
        let report = Util.fuzz_report ~seed:7 ~seeds:120 ~jobs:1 in
        Util.check Alcotest.int "no escapes" 0
          (Faultgen.total_escapes report);
        Util.check Alcotest.int "no quarantined trials" 0
          report.Faultgen.quarantined;
        List.iter
          (fun (c, (s : Faultgen.class_stats)) ->
            Util.check Alcotest.bool
              (Faultgen.class_name c ^ " exercised")
              true (s.Faultgen.injected > 0))
          report.Faultgen.classes);
    Util.tc "structural fault classes are caught by the validator" (fun () ->
        let rng = Random.State.make [| 3 |] in
        List.iter
          (fun cls ->
            let p = Util.front demo in
            Util.check Alcotest.bool "well-formed before" true
              (Rp_ir.Validate.check_program p = []);
            match Faultgen.mutate rng cls p with
            | None -> Alcotest.fail "no mutation site"
            | Some _ ->
              Util.check Alcotest.bool
                (Faultgen.mutation_name cls ^ " flagged")
                true
                (Rp_ir.Validate.check_program p <> []))
          [ Faultgen.Dangling_target; Faultgen.Bad_register ]);
    Util.tc "a report names the requested campaign and its quarantine"
      (fun () ->
        (* one of 5 trials was quarantined: the replay line must still
           ask for the campaign of 5, not a different campaign of 4 *)
        let finished =
          List.init 4 (fun _ -> (Faultgen.Pass_exception, Faultgen.Benign))
        in
        let text =
          Fmt.str "%a" Faultgen.pp_report
            (Faultgen.report ~seed:7 ~trials:5 finished)
        in
        let has sub = Util.check Alcotest.bool sub true (contains text sub) in
        has "campaign: seed=7 trials=5 (replay: rpcc fuzz --seed 7 --trials 5)";
        has "; seed=7, 5 trials, 1 quarantined, 0 escapes");
  ]

(* ------------------------------------------------------------------ *)
(* stats_json shape                                                    *)
(* ------------------------------------------------------------------ *)

let stats_json_tests =
  [
    Util.tc "timings merge sums repeats and keeps first-seen order" (fun () ->
        let s = Pipeline.zero_stage_stats () in
        s.Pipeline.timings <-
          [ ("clean", 0.25); ("valnum", 0.5); ("clean", 1.0); ("dce", 2.0) ];
        match Pipeline.stats_json Config.default s with
        | Json.Obj fields -> (
          match List.assoc "timings_ms" fields with
          | Json.Obj timings ->
            Util.check
              Alcotest.(list string)
              "first-seen order" [ "clean"; "valnum"; "dce" ]
              (List.map fst timings);
            Util.check (Alcotest.float 1e-9) "repeats summed" 1250.
              (match List.assoc "clean" timings with
              | Json.Float f -> f
              | _ -> nan)
          | _ -> Alcotest.fail "timings_ms not an object")
        | _ -> Alcotest.fail "stats_json not an object");
    Util.tc "degraded passes are reported with reasons" (fun () ->
        let s = Pipeline.zero_stage_stats () in
        s.Pipeline.degraded <- [ ("licm", Pipeline.Invalid_il [ "boom" ]) ];
        s.Pipeline.converged <- false;
        match Pipeline.stats_json Config.default s with
        | Json.Obj fields ->
          Util.check Alcotest.bool "converged false" true
            (List.assoc "converged" fields = Json.Bool false);
          Util.check Alcotest.bool "degraded entry" true
            (List.assoc "degraded" fields
            = Json.List
                [
                  Json.Obj
                    [
                      ("pass", Json.Str "licm");
                      ("reason", Json.Str "validation: boom");
                    ];
                ])
        | _ -> Alcotest.fail "stats_json not an object");
  ]

let () =
  Alcotest.run "hardening"
    [
      ("degradation", degradation_tests);
      ("isolation", isolation_tests);
      ("validation", validation_tests);
      ("fuzz", fuzz_tests);
      ("stats-json", stats_json_tests);
    ]
