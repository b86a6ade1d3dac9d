(** The parallel execution layer: {!Rp_support.Pool}'s ordering and
    exception contract, a rerun after in-place passes (it executes the
    optimized code, not the code of the first run), and the
    determinism guarantee that [-j]/[--jobs] changes wall-clock time and
    nothing else — for the fault-injection campaign, the generative
    campaign, and the bench grid's committed JSON baseline. *)

module Pool = Rp_support.Pool
module Interp = Rp_exec.Interp
module Pipeline = Rp_driver.Pipeline

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  let inputs = Array.init 100 (fun i -> i) in
  List.iter
    (fun jobs ->
      let out = Pool.run ~jobs (fun i -> i * i) inputs in
      Array.iteri
        (fun i r ->
          Util.check Alcotest.int
            (Printf.sprintf "jobs=%d slot %d" jobs i)
            (i * i)
            (match r with Ok v -> v | Error _ -> -1))
        out)
    [ 1; 2; 4; 7 ]

let test_pool_exception_capture () =
  let out =
    Pool.run ~jobs:3
      (fun i -> if i = 5 then failwith "boom5" else i)
      (Array.init 10 (fun i -> i))
  in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 5, Error (Failure m) -> Util.check Alcotest.string "payload" "boom5" m
      | 5, _ -> Alcotest.fail "slot 5 should be Error (Failure _)"
      | _, Ok v -> Util.check Alcotest.int "passthrough" i v
      | _, Error _ -> Alcotest.failf "slot %d should be Ok" i)
    out

let test_pool_run_exn_first_error () =
  (* two failing slots: run_exn must re-raise the one a sequential loop
     would have hit first, regardless of which domain finished first *)
  match
    Pool.run_exn ~jobs:4
      (fun i -> if i = 3 || i = 7 then failwith (Printf.sprintf "boom%d" i))
      (Array.init 10 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Util.check Alcotest.string "first in order" "boom3" m

let test_pool_degenerate_shapes () =
  (* more jobs than work, zero jobs (clamped to 1), empty input *)
  let out = Pool.run ~jobs:64 string_of_int (Array.init 3 (fun i -> i)) in
  Util.check
    Alcotest.(list string)
    "jobs > n" [ "0"; "1"; "2" ]
    (Array.to_list out |> List.map Result.get_ok);
  let out = Pool.run ~jobs:0 string_of_int (Array.init 2 (fun i -> i)) in
  Util.check
    Alcotest.(list string)
    "jobs = 0" [ "0"; "1" ]
    (Array.to_list out |> List.map Result.get_ok);
  Util.check Alcotest.int "empty input" 0
    (Array.length (Pool.run ~jobs:4 (fun i -> i) [||]))

(* ------------------------------------------------------------------ *)
(* Supervised pool                                                     *)
(* ------------------------------------------------------------------ *)

module Resilience = Rp_support.Resilience

let test_supervised_ok_portion_matches_run () =
  let inputs = Array.init 40 (fun i -> i) in
  List.iter
    (fun jobs ->
      let out =
        Pool.run_supervised ~jobs (fun ~should_stop:_ i -> i * 3) inputs
      in
      Array.iteri
        (fun i r ->
          Util.check Alcotest.int
            (Printf.sprintf "jobs=%d slot %d" jobs i)
            (i * 3)
            (match r with Ok v -> v | Error _ -> -1))
        out)
    [ 1; 3; 5 ]

let test_supervised_timeout_retries_then_quarantines () =
  let resil = Resilience.create () in
  let out =
    Pool.run_supervised ~jobs:2 ~timeout:0.1 ~retries:1 ~resilience:resil
      (fun ~should_stop i ->
        if i = 1 then begin
          (* cooperative non-terminating job: polls its deadline *)
          while not (should_stop ()) do
            ignore (Sys.opaque_identity 0)
          done;
          raise Exit
        end;
        i)
      [| 0; 1; 2 |]
  in
  (match out.(1) with
  | Error (Pool.Timed_out { attempts; _ }) ->
    Util.check Alcotest.int "attempts = retries + 1" 2 attempts
  | _ -> Alcotest.fail "slot 1 should be Error Timed_out");
  Util.check Alcotest.bool "other slots fine" true
    (out.(0) = Ok 0 && out.(2) = Ok 2);
  Util.check Alcotest.int "two timeouts ticked" 2
    (Resilience.count resil Resilience.Timeout);
  Util.check Alcotest.int "one retry ticked" 1
    (Resilience.count resil Resilience.Retry);
  Util.check Alcotest.int "one quarantine ticked" 1
    (Resilience.count resil Resilience.Quarantine)

let test_supervised_wedged_worker_replaced () =
  (* job 0 never polls [should_stop]: only the supervisor's sweep can take
     it away.  With one worker, the jobs queued behind it can only finish
     on a replacement *)
  let release = Atomic.make false in
  let wedged_on = Atomic.make None in (* the first worker lost *)
  let ran_on = Array.make 4 None in
  let resil = Resilience.create () in
  let t0 = Unix.gettimeofday () in
  let out =
    Fun.protect
      ~finally:(fun () -> Atomic.set release true)
      (fun () ->
        Pool.run_supervised ~jobs:1 ~timeout:0.1 ~grace:0.1 ~retries:1
          ~resilience:resil
          (fun ~should_stop:_ i ->
            if i = 0 then begin
              ignore
                (Atomic.compare_and_set wedged_on None
                   (Some (Domain.self ()))
                  : bool);
              (* capped, so a supervisor that never sweeps fails this
                 test instead of hanging it *)
              let cap = Unix.gettimeofday () +. 10. in
              while (not (Atomic.get release)) && Unix.gettimeofday () < cap do
                Unix.sleepf 0.001
              done
            end
            else ran_on.(i) <- Some (Domain.self ());
            i)
          [| 0; 1; 2; 3 |])
  in
  let took = Unix.gettimeofday () -. t0 in
  (match out.(0) with
  | Error (Pool.Timed_out { attempts; _ }) ->
    Util.check Alcotest.int "attempts = retries + 1" 2 attempts
  | _ -> Alcotest.fail "slot 0 should be Error Timed_out");
  Array.iteri
    (fun i r ->
      if i > 0 then
        Util.check Alcotest.bool (Printf.sprintf "slot %d ok" i) true
          (r = Ok i))
    out;
  Util.check Alcotest.bool "later jobs ran on a replacement worker" true
    (Array.for_all
       (fun d -> d = None || d <> Atomic.get wedged_on)
       ran_on);
  Util.check Alcotest.int "two timeouts ticked" 2
    (Resilience.count resil Resilience.Timeout);
  Util.check Alcotest.int "one retry ticked" 1
    (Resilience.count resil Resilience.Retry);
  Util.check Alcotest.int "one quarantine ticked" 1
    (Resilience.count resil Resilience.Quarantine);
  (* two wedge limits of 0.2 s; the bound leaves room for a loaded host *)
  Util.check Alcotest.bool
    (Printf.sprintf "sweeps at the deadline (%.2f s)" took)
    true (took < 2.0)

let test_supervised_crash_retry_then_success () =
  (* fails on its first attempt only: the retry must succeed and the slot
     must carry the successful value *)
  let first = Array.init 8 (fun _ -> Atomic.make true) in
  let resil = Resilience.create () in
  let out =
    Pool.run_supervised ~jobs:3 ~retries:2 ~resilience:resil
      (fun ~should_stop:_ i ->
        if i mod 3 = 0 && Atomic.exchange first.(i) false then
          failwith "transient";
        i * 7)
      (Array.init 8 (fun i -> i))
  in
  Array.iteri
    (fun i r ->
      Util.check Alcotest.int (Printf.sprintf "slot %d" i) (i * 7)
        (match r with Ok v -> v | Error _ -> -1))
    out;
  Util.check Alcotest.int "three transient crashes" 3
    (Resilience.count resil Resilience.Crash);
  Util.check Alcotest.int "three retries" 3
    (Resilience.count resil Resilience.Retry);
  Util.check Alcotest.int "nothing quarantined" 0
    (Resilience.count resil Resilience.Quarantine)

let test_supervised_crash_exhausts_retries () =
  let out =
    Pool.run_supervised ~jobs:2 ~retries:1
      (fun ~should_stop:_ i -> if i = 0 then failwith "always" else i)
      [| 0; 1 |]
  in
  (match out.(0) with
  | Error (Pool.Crashed { reason; attempts }) ->
    Util.check Alcotest.int "attempts" 2 attempts;
    Util.check Alcotest.bool "reason carries the exception" true
      (let re = "always" in
       let rec find i =
         i + String.length re <= String.length reason
         && (String.sub reason i (String.length re) = re || find (i + 1))
       in
       find 0)
  | _ -> Alcotest.fail "slot 0 should be Error Crashed");
  Util.check Alcotest.bool "slot 1 fine" true (out.(1) = Ok 1)

let test_supervised_cancellation () =
  let cancelled = Atomic.make false in
  let done_count = Atomic.make 0 in
  let out =
    Pool.run_supervised ~jobs:2
      ~cancel:(fun () -> Atomic.get cancelled)
      (fun ~should_stop i ->
        if i < 2 then begin
          ignore (Atomic.fetch_and_add done_count 1);
          i
        end
        else begin
          (* request cancellation, then wait to be told to stop *)
          Atomic.set cancelled true;
          while not (should_stop ()) do
            ignore (Sys.opaque_identity 0)
          done;
          raise Exit
        end)
      [| 0; 1; 2; 3; 4; 5 |]
  in
  let unfinished =
    Array.to_list out
    |> List.filter (function
         | Error (Pool.Crashed { reason = "cancelled"; _ }) -> true
         | _ -> false)
  in
  Util.check Alcotest.bool "some jobs were cancelled" true
    (List.length unfinished >= 1);
  Array.iter
    (function
      | Ok v -> Util.check Alcotest.bool "finished value sane" true (v < 2)
      | Error (Pool.Crashed { reason = "cancelled"; _ }) -> ()
      | Error f ->
        Alcotest.failf "unexpected failure: %a" Pool.pp_job_failure f)
    out

let test_supervised_on_result_fires_once_per_resolution () =
  let fired = Atomic.make 0 in
  let out =
    Pool.run_supervised ~jobs:3
      ~on_result:(fun _ _ -> ignore (Atomic.fetch_and_add fired 1))
      (fun ~should_stop:_ i -> i)
      (Array.init 20 (fun i -> i))
  in
  Util.check Alcotest.int "all ok" 20
    (Array.fold_left
       (fun n r -> match r with Ok _ -> n + 1 | Error _ -> n)
       0 out);
  Util.check Alcotest.int "one on_result per job" 20 (Atomic.get fired)

(* ------------------------------------------------------------------ *)
(* Rerunning a program optimized in place                              *)
(* ------------------------------------------------------------------ *)

let rerun_src =
  {|
int g;
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 50; i = i + 1) {
    g = g + i;
    s = s + g;
  }
  print_int(s);
  return 0;
}
|}

let same_result name (a : Interp.result) (b : Interp.result) =
  Util.check Alcotest.string (name ^ ": output") a.Interp.output b.Interp.output;
  Util.check Alcotest.int (name ^ ": checksum") a.Interp.checksum
    b.Interp.checksum;
  Util.check Alcotest.int (name ^ ": ops") a.Interp.total.Interp.ops
    b.Interp.total.Interp.ops

let test_rerun_after_passes () =
  let p = Util.front rerun_src in
  let r0 = Interp.run p in
  (* optimize rewrites [p] in place: the next run executes its new code,
     matching a from-scratch compile of the same source *)
  ignore (Pipeline.optimize p : Pipeline.stage_stats);
  let r1 = Interp.run p in
  let p' = Util.front rerun_src in
  ignore (Pipeline.optimize p' : Pipeline.stage_stats);
  let r1' = Interp.run p' in
  same_result "fresh compile agrees" r1 r1';
  Util.check Alcotest.bool "the rerun ran the optimized code" true
    (r1.Interp.total.Interp.ops < r0.Interp.total.Interp.ops);
  Util.check Alcotest.string "optimize preserved behaviour" r0.Interp.output
    r1.Interp.output

(* ------------------------------------------------------------------ *)
(* Campaign determinism across -j                                      *)
(* ------------------------------------------------------------------ *)

let report_to_string r = Fmt.str "%a" Rp_fuzz.Faultgen.pp_report r

let test_fuzz_campaign_jobs_invariant () =
  let r1 = Rp_fuzz.Faultgen.run ~seed:11 ~seeds:30 ~jobs:1 () in
  let r4 = Rp_fuzz.Faultgen.run ~seed:11 ~seeds:30 ~jobs:4 () in
  Util.check Alcotest.string "identical reports at -j1 and -j4"
    (report_to_string r1) (report_to_string r4)

(* The CLI end of the same guarantee: byte-identical stdout.  [rpcc.exe]
   is a declared test dep, so the relative path resolves inside the
   sandbox. *)

let shell_out cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Buffer.contents buf
  | _ -> Alcotest.failf "command failed: %s" cmd

let in_temp_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-%s-%d" name (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  f dir

let test_gen_fuzz_cli_jobs_invariant () =
  let rpcc = Filename.concat (Sys.getcwd ()) "../bin/rpcc.exe" in
  in_temp_dir "genfuzz" @@ fun dir ->
  let run jobs sub =
    shell_out
      (Printf.sprintf "%s gen-fuzz --trials 50 --seed 42 --jobs %d --out-dir %s 2>&1"
         (Filename.quote rpcc) jobs
         (Filename.quote (Filename.concat dir sub)))
  in
  let o1 = run 1 "j1" and o4 = run 4 "j4" in
  Util.check Alcotest.string "identical gen-fuzz stdout at -j1 and -j4" o1 o4

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The committed baselines ([../BENCH_*.json] are declared test deps) are
   what the code emits: the counts document byte for byte, the timings
   document by schema (its numbers are machine-dependent). *)
let test_bench_counts_jobs_invariant () =
  let bench = Filename.concat (Sys.getcwd ()) "../bench/main.exe" in
  in_temp_dir "bench" @@ fun dir ->
  let run jobs =
    let sub = Filename.concat dir (Printf.sprintf "j%d" jobs) in
    (try Sys.mkdir sub 0o755 with Sys_error _ -> ());
    ignore
      (shell_out
         (Printf.sprintf "cd %s && %s --json --jobs %d 2>&1"
            (Filename.quote sub) (Filename.quote bench) jobs)
        : string);
    sub
  in
  let d1 = run 1 and d4 = run 4 in
  let counts d = read_file (Filename.concat d "BENCH_counts.json") in
  let c1 = counts d1 in
  Util.check Alcotest.bool "BENCH_counts.json byte-identical at -j1 and -j4"
    true (String.equal c1 (counts d4));
  Util.check Alcotest.bool "committed BENCH_counts.json is what -j1 writes"
    true (String.equal c1 (read_file "../BENCH_counts.json"));
  let schema path =
    match Rp_support.Json.(member "schema" (of_file path)) with
    | Some (Rp_support.Json.Str s) -> s
    | _ -> Alcotest.failf "%s has no schema" path
  in
  Util.check Alcotest.string "committed BENCH_timings.json schema"
    (schema (Filename.concat d1 "BENCH_timings.json"))
    (schema "../BENCH_timings.json")

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Util.tc "results are index-ordered at any jobs" test_pool_ordering;
          Util.tc "a raising job yields Error in its slot"
            test_pool_exception_capture;
          Util.tc "run_exn re-raises the first error in index order"
            test_pool_run_exn_first_error;
          Util.tc "degenerate shapes (jobs>n, jobs=0, empty)"
            test_pool_degenerate_shapes;
        ] );
      ( "supervised",
        [
          Util.tc "Ok portion matches unsupervised run"
            test_supervised_ok_portion_matches_run;
          Util.tc "cooperative timeout retries then quarantines"
            test_supervised_timeout_retries_then_quarantines;
          Util.tc "wedged worker abandoned and replaced"
            test_supervised_wedged_worker_replaced;
          Util.tc "transient crash retried to success"
            test_supervised_crash_retry_then_success;
          Util.tc "persistent crash exhausts retries"
            test_supervised_crash_exhausts_retries;
          Util.tc "cancellation resolves unfinished jobs without on_result"
            test_supervised_cancellation;
          Util.tc "on_result fires once per resolved job"
            test_supervised_on_result_fires_once_per_resolution;
        ] );
      ( "precomp-rerun",
        [
          Util.tc "rerun after in-place passes agrees" test_rerun_after_passes;
        ] );
      ( "determinism",
        [
          Util.tc "fault-injection report identical across jobs"
            test_fuzz_campaign_jobs_invariant;
          Util.tc_slow "gen-fuzz CLI stdout identical across jobs"
            test_gen_fuzz_cli_jobs_invariant;
          Util.tc_slow "bench counts baseline identical across jobs"
            test_bench_counts_jobs_invariant;
        ] );
    ]
