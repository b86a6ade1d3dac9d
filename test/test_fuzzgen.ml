(** Generative differential testing: the program generator, the
    cross-configuration oracle, and the delta-debugging reducer.

    The end-to-end tests plant a real fault (via {!Rp_fuzz.Faultgen})
    inside a grid compile and assert the whole chain works: the oracle
    reports a divergence, and the reducer shrinks the program to a small
    reproducer that still triggers it. *)

module Gen = Rp_fuzz.Gen
module D = Rp_fuzz.Difforacle
module Reduce = Rp_fuzz.Reduce

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_deterministic () =
  for trial = 0 to 9 do
    Util.check Alcotest.string
      (Printf.sprintf "trial %d replays byte-identically" trial)
      (Gen.program_of_seed ~seed:42 ~trial)
      (Gen.program_of_seed ~seed:42 ~trial)
  done;
  Util.check Alcotest.bool "different trials differ" true
    (Gen.program_of_seed ~seed:42 ~trial:0
    <> Gen.program_of_seed ~seed:42 ~trial:1);
  Util.check Alcotest.bool "different seeds differ" true
    (Gen.program_of_seed ~seed:42 ~trial:0
    <> Gen.program_of_seed ~seed:43 ~trial:0)

(* Generated programs must be accepted, terminate well inside the oracle
   fuel budget, and behave identically across the whole grid.  This is
   the generator's safety-by-construction contract; a violation here
   means the generator (or the compiler) broke. *)
let test_trials_agree () =
  for trial = 0 to 19 do
    let src = Gen.program_of_seed ~seed:1 ~trial in
    match D.check src with
    | D.Agree { configs; ref_ops } ->
      Util.check Alcotest.int "all grid configurations checked" 6 configs;
      Util.check Alcotest.bool "reference terminates within fuel" true
        (ref_ops > 0 && ref_ops < D.default_fuel)
    | o -> Alcotest.failf "trial %d: %a" trial D.pp_outcome o
  done

let test_oracle_passes_mode () =
  (* the expensive per-pass oracle must also come back clean *)
  let src = Gen.program_of_seed ~seed:2 ~trial:0 in
  match D.check ~mode:D.OraclePasses src with
  | D.Agree _ -> ()
  | o -> Alcotest.failf "oracle-passes mode: %a" D.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Oracle: planted faults must be caught                               *)
(* ------------------------------------------------------------------ *)

(** Scan trials until one diverges under a planted fault; the mutation is
    skipped when the randomly chosen site doesn't exist, so not every
    trial fires. *)
let find_divergence ?(mode = D.Plain) ~fault ~seed trials =
  let rec go trial =
    if trial >= trials then None
    else
      let src = Gen.program_of_seed ~seed ~trial in
      match D.check ~mode ~inject:(fault, seed) src with
      | D.Diverged fs -> Some (src, fs)
      | _ -> go (trial + 1)
  in
  go 0

let test_planted_drop_store_diverges () =
  match
    find_divergence ~fault:Rp_fuzz.Faultgen.Drop_store ~seed:7 10
  with
  | None ->
    Alcotest.fail "no divergence from 10 trials with planted store drops"
  | Some (_, fs) ->
    Util.check Alcotest.bool "a behavioural class is reported" true
      (List.exists
         (fun (f : D.failure) ->
           match f.D.cls with
           | D.Output_mismatch | D.Checksum_mismatch | D.Trap_mismatch ->
             true
           | _ -> false)
         fs)

let test_verify_mode_contains_dangling () =
  (* a dangling branch target is structurally invalid: in Verify mode the
     hardened pipeline must roll the pass back and the oracle must report
     the degradation rather than a crash *)
  match
    find_divergence ~mode:D.Verify ~fault:Rp_fuzz.Faultgen.Dangling_target
      ~seed:11 10
  with
  | None -> Alcotest.fail "no divergence from planted dangling targets"
  | Some (_, fs) ->
    Util.check Alcotest.bool "reported as a degraded pass" true
      (List.exists (fun (f : D.failure) -> f.D.cls = D.Degraded_pass) fs)

(* Every pair of run outcomes through the one comparison, as a grid cell
   (against O0) and as the native cell (against the interpreter): which
   class each pair reports, [None] for agreement. *)
let test_compare_runs () =
  let module I = Rp_exec.Interp in
  let counts ops = { I.ops; loads = 2; stores = 1 } in
  let r =
    {
      I.ret = Rp_exec.Value.Vint 0;
      output = "1\n";
      checksum = 7;
      total = counts 10;
      per_func = [ ("main", counts 10) ];
    }
  in
  let ok = I.Completed r in
  let trap_a = I.Trapped "division by zero" in
  let trap_b = I.Trapped "out-of-bounds access" in
  let limit_a = I.Limited (I.Fuel 100) in
  let limit_b = I.Limited (I.Depth 100) in
  let stopped = I.Limited (I.Stopped 4096) in
  let changed name f = (name, I.Completed (f r)) in
  let same = (None, None) and both c = (Some c, Some c) in
  let rows =
    [
      (("completed", ok), ("completed", ok), same);
      ( ("completed", ok),
        changed "other output" (fun r -> { r with I.output = "2\n" }),
        both D.Output_mismatch );
      ( ("completed", ok),
        changed "other checksum" (fun r -> { r with I.checksum = 8 }),
        both D.Checksum_mismatch );
      ( ("completed", ok),
        changed "other return value" (fun r ->
            { r with I.ret = Rp_exec.Value.Vint 1 }),
        (None, Some D.Output_mismatch) );
      ( ("completed", ok),
        changed "other total" (fun r -> { r with I.total = counts 11 }),
        (None, Some D.Count_regression) );
      ( ("completed", ok),
        changed "other per-function count" (fun r ->
            { r with I.per_func = [ ("main", counts 9) ] }),
        (None, Some D.Count_regression) );
      (("completed", ok), ("trap", trap_a), both D.Trap_mismatch);
      (("completed", ok), ("limit", limit_a), both D.Fuel_imbalance);
      (("trap", trap_a), ("completed", ok), both D.Trap_mismatch);
      (("trap", trap_a), ("same trap", trap_a), same);
      (("trap", trap_a), ("other trap", trap_b), both D.Trap_mismatch);
      (("trap", trap_a), ("limit", limit_a), both D.Fuel_imbalance);
      (("limit", limit_a), ("completed", ok), both D.Fuel_imbalance);
      (("limit", limit_a), ("trap", trap_a), both D.Fuel_imbalance);
      (("limit", limit_a), ("same limit", limit_a), same);
      (("limit", limit_a), ("other limit", limit_b), both D.Fuel_imbalance);
      (* a run the caller stopped is no finding, on either side *)
      (("completed", ok), ("stopped", stopped), same);
      (("trap", trap_a), ("stopped", stopped), same);
      (("limit", limit_a), ("stopped", stopped), same);
      (("stopped", stopped), ("completed", ok), same);
      (("stopped", stopped), ("trap", trap_a), same);
      (("stopped", stopped), ("limit", limit_a), same);
      (("stopped", stopped), ("stopped", stopped), same);
    ]
  in
  let verdict cell ~expected got =
    Option.map
      (fun (c, _) -> D.class_name c)
      (D.compare_runs cell ~expected got)
  in
  List.iter
    (fun ((en, expected), (gn, got), (grid, native)) ->
      let name cell = Printf.sprintf "%s: expected %s, got %s" cell en gn in
      Util.check
        Alcotest.(option string)
        (name "grid")
        (Option.map D.class_name grid)
        (verdict D.Grid ~expected got);
      Util.check
        Alcotest.(option string)
        (name "native")
        (Option.map D.class_name native)
        (verdict D.Native ~expected got))
    rows;
  (* the grid's details are the campaign report's text *)
  let detail got =
    Option.map snd (D.compare_runs D.Grid ~expected:ok got)
  in
  Util.check
    Alcotest.(option string)
    "output detail" (Some {|expected "1|" got "2|"|})
    (detail (I.Completed { r with I.output = "2\n" }));
  Util.check
    Alcotest.(option string)
    "trap detail"
    (Some
       "reference completed but this configuration trapped: division by zero")
    (detail trap_a);
  Util.check
    Alcotest.(option string)
    "limit detail"
    (Some "reference ran 10 ops; fuel exhausted (100 operations)")
    (detail limit_a)

(* ------------------------------------------------------------------ *)
(* Reducer: synthetic predicates                                       *)
(* ------------------------------------------------------------------ *)

let test_reduce_synthetic () =
  (* predicate: both marker lines survive — everything else is noise *)
  let src =
    String.concat "\n"
      [ "int f() {"; "  keep_one;"; "  junk1;"; "  junk2;"; "  for (;;) {";
        "    junk3;"; "  }"; "}"; "int g() {"; "  junk4;"; "  keep_two;";
        "}" ]
  in
  let predicate s =
    if Util.contains ~sub:"keep_one" s && Util.contains ~sub:"keep_two" s
    then
      Reduce.Fail
    else Reduce.Pass
  in
  let r = Reduce.run ~budget:5. ~predicate src in
  Util.check Alcotest.bool "both markers kept" true
    (Util.contains ~sub:"keep_one" r.Reduce.reduced
    && Util.contains ~sub:"keep_two" r.Reduce.reduced);
  Util.check Alcotest.bool "junk removed" true
    (not (Util.contains ~sub:"junk" r.Reduce.reduced));
  Util.check Alcotest.bool "shrunk" true
    (r.Reduce.reduced_lines < r.Reduce.original_lines);
  Util.check Alcotest.bool "accepted some candidates" true
    (r.Reduce.accepted > 0)

let test_reduce_quarantine () =
  (* a predicate that can never decide: the reducer must keep the
     original, count the quarantines, and terminate *)
  let src = "int f() {\n  a;\n  b;\n}" in
  let r =
    Reduce.run ~budget:5. ~predicate:(fun _ -> Reduce.Quarantine) src
  in
  Util.check Alcotest.string "original kept" src r.Reduce.reduced;
  Util.check Alcotest.bool "quarantines counted" true
    (r.Reduce.quarantined > 0);
  Util.check Alcotest.int "nothing accepted" 0 r.Reduce.accepted

(* ------------------------------------------------------------------ *)
(* End to end: find a planted miscompile and shrink it                 *)
(* ------------------------------------------------------------------ *)

let test_shrink_end_to_end () =
  let fault = Rp_fuzz.Faultgen.Drop_store in
  let seed = 7 in
  match find_divergence ~fault ~seed 10 with
  | None -> Alcotest.fail "no divergence to shrink"
  | Some (src, fs) ->
    let target = List.hd fs in
    let predicate ~deadline s =
      match D.check ~mode:D.Plain ~deadline ~inject:(fault, seed) s with
      | D.Diverged fs
        when List.exists
               (fun (f : D.failure) ->
                 f.D.config = target.D.config && f.D.cls = target.D.cls)
               fs ->
        Reduce.Fail
      | D.Inconclusive _ -> Reduce.Quarantine
      | _ -> Reduce.Pass
    in
    (* deadlines are {!Rp_support.Clock} readings, as in [rpcc reduce] *)
    let within budget = Rp_support.Clock.now () +. budget in
    let r =
      Reduce.run ~budget:60. ~predicate:(predicate ~deadline:(within 60.)) src
    in
    (* the reduced program must still reproduce the original failure, on
       a budget of its own so the reduction's cannot quarantine it *)
    Util.check Alcotest.bool "reduced program still diverges" true
      (predicate ~deadline:(within 60.) r.Reduce.reduced = Reduce.Fail);
    if r.Reduce.reduced_lines > 25 then
      Alcotest.failf "reducer left %d lines (> 25):\n%s"
        r.Reduce.reduced_lines r.Reduce.reduced

let () =
  Alcotest.run "fuzzgen"
    [
      ( "generator",
        [
          Util.tc "deterministic per (seed, trial)" test_deterministic;
          Util.tc_slow "20 trials agree across the grid" test_trials_agree;
          Util.tc_slow "per-pass oracle mode agrees" test_oracle_passes_mode;
        ] );
      ( "oracle",
        [
          Util.tc_slow "planted store drop diverges"
            test_planted_drop_store_diverges;
          Util.tc_slow "dangling target contained as degraded"
            test_verify_mode_contains_dangling;
          Util.tc "one comparison judges every pair of runs"
            test_compare_runs;
        ] );
      ( "reduce",
        [
          Util.tc "synthetic markers" test_reduce_synthetic;
          Util.tc "all-quarantine predicate" test_reduce_quarantine;
        ] );
      ( "end-to-end",
        [ Util.tc_slow "shrink a planted miscompile to <= 25 lines"
            test_shrink_end_to_end ] );
    ]
