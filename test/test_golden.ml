(** Golden dynamic-count regression tests.

    The interpreter's counts are exact and deterministic (no wall-clock, no
    address randomness), so the reproduction's headline numbers can be
    pinned.  If an intentional pipeline change shifts these, re-baseline
    with the generator in the comment below and update EXPERIMENTS.md to
    match — the point of this suite is that such shifts never happen
    silently.

    Regenerate with:
    {v
      for each (program, config): Pipeline.compile_and_run and print
      (ops, loads, stores)  — see test/test_golden.ml history
    v} *)

open Rp_driver

(* (program, configuration, (ops, loads, stores)) under the default k=24
   modref pipeline *)
let golden =
  [
    ("mlink", "without", (1161850, 245764, 205008));
    ("mlink", "with", (967926, 81956, 41124));
    ("go", "without", (1002419, 210791, 613));
    ("go", "with", (811099, 65948, 613));
    ("dhrystone", "without", (162036, 12003, 26003));
    ("dhrystone", "with", (162036, 12003, 26003));
    ("bison", "without", (631869, 52002, 51923));
    ("bison", "with", (632670, 52401, 52324));
    ("water", "without", (1108704, 278428, 268864));
    ("water", "with", (1409454, 341578, 170764));
    ("allroots", "without", (618, 84, 4));
    ("allroots", "with", (618, 84, 4));
    (* the native-backend workload: the scalars q/acc promote out of the
       four kernels, the array traffic itself must stay *)
    ("triad", "without", (15242289, 3670278, 1841282));
    ("triad", "with", (13146161, 2360198, 1055234));
    (* the pointer tier, under points-to analysis with and without §3.3
       stacked on scalar promotion: the walks' load/store traffic drops
       when pointer promotion fires, and ptrchase must not move at all *)
    ("ptrsum", "ptr/scalar", (298579, 61472, 31520));
    ("ptrsum", "ptr/both", (239699, 32032, 2080));
    ("stride", "ptr/scalar", (387152, 61632, 35200));
    ("stride", "ptr/both", (333392, 34752, 8320));
    ("ptrchase", "ptr/scalar", (66323, 12800, 256));
    ("ptrchase", "ptr/both", (66323, 12800, 256));
  ]

let cfg_of = function
  | "without" -> { Config.default with Config.promote = false }
  | "with" -> Config.default
  | "ptr/scalar" -> { Config.default with Config.analysis = Config.Apointer }
  | "ptr/both" ->
    { Config.default with
      Config.analysis = Config.Apointer; ptr_promote = true }
  | s -> invalid_arg s

let tests =
  List.map
    (fun (name, cn, (ops, loads, stores)) ->
      Util.tc_slow (Printf.sprintf "%s/%s counts pinned" name cn) (fun () ->
          let src = (Rp_suite.Programs.find name).Rp_suite.Programs.source in
          let (got_ops, got_loads, got_stores) =
            Util.counts ~config:(cfg_of cn) src
          in
          Util.check Alcotest.int "ops" ops got_ops;
          Util.check Alcotest.int "loads" loads got_loads;
          Util.check Alcotest.int "stores" stores got_stores))
    golden

(* ------------------------------------------------------------------ *)
(* The --stats-json document schema, pinned                             *)
(* ------------------------------------------------------------------ *)

(* The observability JSON is consumed by CI and by out-of-tree tooling, so
   its key structure is part of the golden surface: adding keys is fine
   only if this snapshot is consciously re-baselined. *)

module Json = Rp_support.Json

let stats_json_tests =
  let demo =
    "int total; int main() { int i; for (i = 0; i < 100; i++) total += i; \
     print_int(total); return 0; }"
  in
  let run_stats_json () =
    let tmp_src = Filename.temp_file "rpcc_golden" ".c" in
    let tmp_out = Filename.temp_file "rpcc_golden" ".json" in
    let oc = open_out tmp_src in
    output_string oc demo;
    close_out oc;
    Fun.protect
      ~finally:(fun () ->
        Sys.remove tmp_src;
        Sys.remove tmp_out)
      (fun () ->
        let cmd =
          Printf.sprintf "../bin/rpcc.exe run --stats-json %s > %s 2>&1"
            (Filename.quote tmp_src) (Filename.quote tmp_out)
        in
        let status = Sys.command cmd in
        Alcotest.(check int) "exit 0" 0 status;
        Json.of_file tmp_out)
  in
  [
    Util.tc "rpcc run --stats-json: document schema pinned" (fun () ->
        let j = run_stats_json () in
        Util.check
          Alcotest.(list string)
          "top-level keys"
          [
            "schema"; "config"; "config_name"; "counters"; "analysis_iters";
            "converged"; "degraded"; "validated_passes"; "timings_ms";
            "total_ms"; "resilience"; "result";
          ]
          (Json.keys j);
        Util.check
          Alcotest.(option string)
          "schema marker" (Some "rpcc-stats/8")
          (match Json.member "schema" j with
          | Some (Json.Str s) -> Some s
          | _ -> None);
        Util.check
          Alcotest.(option string)
          "canonical config name" (Some "modref/with")
          (match Json.member "config_name" j with
          | Some (Json.Str s) -> Some s
          | _ -> None);
        Util.check
          Alcotest.(list string)
          "resilience keys"
          [ "timeouts"; "retries"; "resumed"; "crashed"; "quarantined" ]
          (match Json.member "resilience" j with
          | Some r -> Json.keys r
          | None -> []);
        Util.check
          Alcotest.(list string)
          "counter keys"
          [
            "promoted"; "throttled"; "ptr_promoted"; "hoisted"; "vn_rewrites";
            "pre_removed"; "folded"; "dce_removed"; "dse_removed"; "spilled";
            "coalesced";
          ]
          (match Json.member "counters" j with
          | Some c -> Json.keys c
          | None -> []);
        Util.check
          Alcotest.(list string)
          "result keys"
          [ "ops"; "loads"; "stores"; "checksum" ]
          (match Json.member "result" j with
          | Some r -> Json.keys r
          | None -> []));
    Util.tc "rpcc run --stats-json: values are sane and deterministic"
      (fun () ->
        let j = run_stats_json () in
        let int_of path obj =
          match Json.member path obj with
          | Some (Json.Int i) -> i
          | _ -> Alcotest.fail (path ^ " missing or not an int")
        in
        let result =
          match Json.member "result" j with
          | Some r -> r
          | None -> Alcotest.fail "no result"
        in
        (* the demo loop: deterministic dynamic counts under the default
           config (same program as the integration CLI test) *)
        Util.check Alcotest.bool "ops positive" true (int_of "ops" result > 0);
        Util.check Alcotest.bool "analysis ran" true
          (int_of "analysis_iters" j >= 1);
        (* a healthy compile: converged, nothing degraded *)
        Util.check Alcotest.bool "converged" true
          (Json.member "converged" j = Some (Json.Bool true));
        Util.check Alcotest.bool "no degraded passes" true
          (Json.member "degraded" j = Some (Json.List []));
        (* every pipeline stage of the default config appears in timings *)
        let timing_keys =
          match Json.member "timings_ms" j with
          | Some t -> Json.keys t
          | None -> []
        in
        List.iter
          (fun k ->
            Util.check Alcotest.bool (k ^ " timed") true
              (List.mem k timing_keys))
          [ "frontend"; "analysis"; "promotion"; "regalloc"; "validate" ]);
  ]

let () =
  Alcotest.run "golden"
    [ ("counts", tests); ("stats-json", stats_json_tests) ]
