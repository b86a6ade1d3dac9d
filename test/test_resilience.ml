(** The supervised execution layer, end to end: the reducer's deadline
    contract, [rpcc run --retries] (only a run's own timeout is
    retried), crash-resumable campaigns (SIGKILL a [gen-fuzz] run
    mid-flight, resume it from the journal, and demand byte-identical
    stdout), and the bench grid's planted-hang drill (a never-terminating
    cell must land as a degraded cell under the retry policy while every
    other cell of BENCH_counts.json stays byte-identical). *)

module Json = Rp_support.Json
module Reduce = Rp_fuzz.Reduce

(* ------------------------------------------------------------------ *)
(* Reduce: deadline and external-stop behaviour                        *)
(* ------------------------------------------------------------------ *)

let reduce_src =
  "int g;\n\
   int keep() {\n\
   g = g + 12345;\n\
   return g;\n\
   }\n\
   int pad1() { return 1; }\n\
   int pad2() { return 2; }\n\
   int pad3() { return 3; }\n\
   int main() {\n\
   int i;\n\
   for (i = 0; i < 3; i = i + 1) { g = g + 1; }\n\
   return keep();\n\
   }"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_reduce_deadline_hit_still_emits_reproducer () =
  (* the failure "reproduces" whenever the marker constant survives; a
     zero budget expires before the first candidate *)
  let predicate c = if contains c "12345" then Reduce.Fail else Reduce.Pass in
  let r = Reduce.run ~budget:0. ~predicate reduce_src in
  Alcotest.(check bool) "deadline_hit set" true r.Reduce.deadline_hit;
  Alcotest.(check bool) "reproducer still reproduces" true
    (predicate r.Reduce.reduced = Reduce.Fail);
  Alcotest.(check int) "nothing evaluated after expiry" 0 r.Reduce.candidates

let test_reduce_should_stop_mid_search () =
  let calls = ref 0 in
  let predicate c =
    incr calls;
    if contains c "12345" then Reduce.Fail else Reduce.Pass
  in
  (* generous wall-clock budget; stop externally after a few candidates *)
  let r =
    Reduce.run ~budget:60. ~should_stop:(fun () -> !calls >= 5) ~predicate
      reduce_src
  in
  Alcotest.(check bool) "external stop reported as deadline_hit" true
    r.Reduce.deadline_hit;
  Alcotest.(check bool) "search actually stopped early" true
    (r.Reduce.candidates <= 6);
  Alcotest.(check bool) "best-so-far reproducer is valid" true
    (predicate r.Reduce.reduced = Reduce.Fail)

let test_reduce_unconstrained_shrinks_and_terminates () =
  let predicate c = if contains c "12345" then Reduce.Fail else Reduce.Pass in
  let r = Reduce.run ~budget:30. ~predicate reduce_src in
  Alcotest.(check bool) "no deadline hit" false r.Reduce.deadline_hit;
  Alcotest.(check bool) "shrunk" true
    (r.Reduce.reduced_lines < r.Reduce.original_lines);
  Alcotest.(check bool) "marker survives" true (contains r.Reduce.reduced "12345")

(* ------------------------------------------------------------------ *)
(* Shelling out                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(** Run [argv] with stdout/stderr redirected to files; returns the exit
    status and stdout. *)
let run_capture ?(dir = ".") argv =
  let out = Filename.temp_file "rp_resil_out" ".txt" in
  let err = Filename.temp_file "rp_resil_err" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let cmd =
        Printf.sprintf "cd %s && %s > %s 2> %s" (Filename.quote dir)
          (String.concat " " (List.map Filename.quote argv))
          (Filename.quote out) (Filename.quote err)
      in
      let status = Sys.command cmd in
      (status, read_file out))

let in_temp_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-resil-%s-%d" name (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  f dir

(* ------------------------------------------------------------------ *)
(* rpcc run --retries: only the run's own timeout is retried           *)
(* ------------------------------------------------------------------ *)

(** [rpcc run ARGS] on a file holding [src]: the exit status, stdout,
    stderr, and wall-clock seconds. *)
let rpcc_run args src =
  let rpcc = Filename.concat (Sys.getcwd ()) "../bin/rpcc.exe" in
  let file = Filename.temp_file "rp_retries" ".c" in
  let out = Filename.temp_file "rp_retries_out" ".txt" in
  let err = Filename.temp_file "rp_retries_err" ".txt" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ file; out; err ])
    (fun () ->
      let oc = open_out_bin file in
      output_string oc src;
      close_out oc;
      let cmd =
        Printf.sprintf "%s run %s %s > %s 2> %s" (Filename.quote rpcc) args
          (Filename.quote file) (Filename.quote out) (Filename.quote err)
      in
      let t0 = Rp_support.Clock.now () in
      let status = Sys.command cmd in
      let secs = Rp_support.Clock.elapsed t0 in
      (status, read_file out, read_file err, secs))

let trap_src =
  "int a[4];\n\
   int main() {\n\
   int i;\n\
   i = 5;\n\
   a[i] = 1;\n\
   return 0;\n\
   }"

let loop_src =
  "int g;\n\
   int main() {\n\
   while (1) g = g + 1;\n\
   return 0;\n\
   }"

(* The --stats-json document of a run stopped by a resource limit:
   parseable, its result null, its resilience counter [key] read back. *)
let limit_doc out =
  let j = Json.parse out in
  let counter key =
    match Json.member "resilience" j with
    | Some r -> (
      match Json.member key r with Some (Json.Int n) -> n | _ -> -1)
    | None -> -1
  in
  (Json.member "result" j, counter)

let run_retries_tests =
  [
    Util.tc "a trap is reported, not retried" (fun () ->
        let (bare, _, bare_err, _) = rpcc_run "" trap_src in
        let (st, _, err, secs) = rpcc_run "--timeout 5 --retries 30" trap_src in
        Util.check Alcotest.int "exit without --retries" 1 bare;
        Util.check Alcotest.int "exit" 1 st;
        Util.check Alcotest.string "same stderr" bare_err err;
        (* thirty backoff sleeps would take at least 51 s *)
        Util.check Alcotest.bool "no backoff" true (secs < 10.));
    Util.tc "its own timeout is retried" (fun () ->
        let (st, _, _, secs) = rpcc_run "--timeout 0.05 --retries 2" loop_src in
        Util.check Alcotest.int "exit" 3 st;
        (* three 50 ms deadlines, then backoff sleeps of at least 50 and
           100 ms between them *)
        Util.check Alcotest.bool "three attempts" true (secs >= 0.3));
    Util.tc "--retries needs --timeout" (fun () ->
        let (st, _, _, _) = rpcc_run "--retries 1" trap_src in
        Util.check Alcotest.int "exit" 2 st);
    Util.tc "stats document of a run that timed out" (fun () ->
        let (st, out, err, _) =
          rpcc_run "--timeout 0.05 --retries 2 --stats-json" loop_src
        in
        Util.check Alcotest.int "exit" 3 st;
        Util.check Alcotest.bool "limit on stderr" true
          (String.starts_with ~prefix:"resource limit: external stop" err);
        let result, counter = limit_doc out in
        Util.check Alcotest.bool "result null" true (result = Some Json.Null);
        Util.check Alcotest.int "timeouts" 3 (counter "timeouts");
        Util.check Alcotest.int "retries" 2 (counter "retries"));
    Util.tc "stats document of a run out of fuel" (fun () ->
        let (st, out, err, _) = rpcc_run "--fuel 1000 --stats-json" loop_src in
        Util.check Alcotest.int "exit" 3 st;
        Util.check Alcotest.string "stderr"
          "resource limit: fuel exhausted (1000 operations)\n" err;
        let result, counter = limit_doc out in
        Util.check Alcotest.bool "result null" true (result = Some Json.Null);
        Util.check Alcotest.int "timeouts" 0 (counter "timeouts"));
  ]

(* ------------------------------------------------------------------ *)
(* gen-fuzz: SIGKILL mid-campaign, resume, byte-identical report       *)
(* ------------------------------------------------------------------ *)

let test_gen_fuzz_kill_and_resume () =
  let rpcc = Filename.concat (Sys.getcwd ()) "../bin/rpcc.exe" in
  in_temp_dir "genfuzz" @@ fun dir ->
  let common out_dir =
    [
      "gen-fuzz"; "--trials"; "40"; "--seed"; "42"; "--jobs"; "2"; "--out-dir";
      Filename.concat dir out_dir;
    ]
  in
  (* the uninterrupted reference run *)
  let (ref_st, ref_out) = run_capture ~dir (rpcc :: common "ref") in
  (* the victim: journaled, SIGKILLed mid-campaign *)
  let journal = Filename.concat dir "camp.jsonl" in
  let victim_out = Filename.concat dir "victim.log" in
  let pid =
    Unix.create_process rpcc
      (Array.of_list
         ((rpcc :: common "victim") @ [ "--journal"; journal ]))
      (Unix.openfile victim_out [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644)
      Unix.stdout Unix.stderr
  in
  Unix.sleepf 0.3;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  (* resume from whatever the journal captured (possibly nothing, possibly
     everything — byte-identity must hold regardless) *)
  let (res_st, res_out) =
    run_capture ~dir
      ((rpcc :: common "resumed")
      @ [ "--resume"; journal; "--journal"; journal ])
  in
  Alcotest.(check int) "same exit code" ref_st res_st;
  Alcotest.(check string) "byte-identical stdout after resume" ref_out res_out;
  (* a second resume replays everything from the journal, still identical *)
  let (_, res2_out) =
    run_capture ~dir ((rpcc :: common "resumed2") @ [ "--resume"; journal ])
  in
  Alcotest.(check string) "fully-replayed rerun still identical" ref_out
    res2_out

(* ------------------------------------------------------------------ *)
(* bench --json: the planted-hang drill                                *)
(* ------------------------------------------------------------------ *)

let test_bench_planted_hang_degrades_one_cell () =
  let bench = Filename.concat (Sys.getcwd ()) "../bench/main.exe" in
  in_temp_dir "bench" @@ fun dir ->
  let docs sub args =
    let d = Filename.concat dir sub in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    let (st, _) = run_capture ~dir:d (bench :: "--json" :: args) in
    Alcotest.(check int) (sub ^ " exit 0") 0 st;
    ( Json.of_file (Filename.concat d "BENCH_counts.json"),
      Json.of_file (Filename.concat d "BENCH_timings.json") )
  in
  let counts sub args = fst (docs sub args) in
  let journal = Filename.concat dir "grid.jsonl" in
  (try Sys.remove journal with Sys_error _ -> ());
  let baseline = counts "base" [ "--jobs"; "4"; "--journal"; journal ] in
  (* the timeout must be generous enough that only the planted cell hits
     it even on a loaded machine: an honest cell timing out on its first
     attempt would perturb the resilience counters (its retry still keeps
     the counts identical).  The heaviest honest cells (triad) run
     ~0.8 s alone but multiples of that with four jobs contending on a
     small core count, so 10 s is the margin that keeps them honest
     while the planted hang still trips both attempts. *)
  let planted =
    counts "planted"
      [
        "--jobs"; "4"; "--job-timeout"; "10"; "--retries"; "1"; "--plant-hang";
        "mlink:modref/with";
      ]
  in
  let programs j =
    match Json.member "programs" j with
    | Some (Json.Obj ps) -> ps
    | _ -> Alcotest.fail "no programs object"
  in
  (* the planted cell is degraded with a timeout reason *)
  (match
     Json.member "mlink" (Json.Obj (programs planted))
     |> Option.map (Json.member "modref/with")
   with
  | Some (Some (Json.Obj [ ("degraded", Json.Str reason) ])) ->
    Alcotest.(check bool) "reason mentions the timeout" true
      (contains reason "timed out")
  | _ -> Alcotest.fail "planted cell should be degraded");
  (* the run's failure telemetry reflects the drill *)
  (match Json.member "resilience" planted with
  | Some r ->
    let count k =
      match Json.member k r with Some (Json.Int n) -> n | _ -> -1
    in
    Alcotest.(check bool) "at least the two planted timed-out attempts" true
      (count "timeouts" >= 2);
    Alcotest.(check bool) "at least the planted retry" true
      (count "retries" >= 1);
    Alcotest.(check int) "exactly one quarantined cell" 1 (count "quarantined")
  | None -> Alcotest.fail "no resilience object");
  (* every other cell is byte-identical to the unplanted baseline *)
  List.iter
    (fun (pname, cells) ->
      match cells with
      | Json.Obj cells ->
        List.iter
          (fun (cname, cell) ->
            if not (pname = "mlink" && cname = "modref/with") then
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s unchanged" pname cname)
                true
                (Json.member pname (Json.Obj (programs planted))
                 |> Option.map (Json.member cname)
                = Some (Some cell)))
          cells
      | _ -> ())
    (programs baseline);
  (* --resume: the journaled cells are replayed, not recomputed, and the
     programs section is byte-identical to the run that wrote them *)
  let resumed_from sub path ~resumed ~recomputed =
    let counts, timings = docs sub [ "--jobs"; "4"; "--resume"; path ] in
    let section k j = Json.to_string (Option.get (Json.member k j)) in
    Alcotest.(check string)
      (sub ^ ": programs byte-equal")
      (section "programs" baseline) (section "programs" counts);
    Alcotest.(check (option int))
      (sub ^ ": resumed cells")
      (Some resumed)
      (match
         Option.bind (Json.member "resilience" counts) (Json.member "resumed")
       with
      | Some (Json.Int n) -> Some n
      | _ -> None);
    let fresh =
      List.concat_map
        (fun (_, cells) ->
          match cells with
          | Json.Obj cells ->
            List.filter
              (fun (_, c) -> Json.member "resumed" c = None)
              cells
          | _ -> [])
        (match Json.member "programs" timings with
        | Some (Json.Obj ps) -> ps
        | _ -> [])
    in
    Alcotest.(check int) (sub ^ ": cells recomputed") recomputed
      (List.length fresh)
  in
  resumed_from "resume-full" journal ~resumed:108 ~recomputed:0;
  (* one byte flipped inside an interior record: its CRC no longer
     matches, so that record is skipped and its cell recomputed *)
  let lines = String.split_on_char '\n' (String.trim (read_file journal)) in
  Alcotest.(check int) "one journal record per cell" 108 (List.length lines);
  let flipped = Filename.concat dir "flipped.jsonl" in
  let oc = open_out_bin flipped in
  List.iteri
    (fun i l ->
      let l =
        if i <> 50 then l
        else
          String.mapi
            (fun j c ->
              if j = String.length l / 2 then Char.chr (Char.code c lxor 1)
              else c)
            l
      in
      output_string oc (l ^ "\n"))
    lines;
  close_out oc;
  resumed_from "resume-flipped" flipped ~resumed:107 ~recomputed:1

let () =
  Alcotest.run "resilience"
    [
      ( "reduce-deadline",
        [
          Util.tc "budget expiry still emits a valid reproducer"
            test_reduce_deadline_hit_still_emits_reproducer;
          Util.tc "external stop behaves like the deadline"
            test_reduce_should_stop_mid_search;
          Util.tc "unconstrained reduction shrinks and terminates"
            test_reduce_unconstrained_shrinks_and_terminates;
        ] );
      ("run-retries", run_retries_tests);
      ( "campaigns",
        [
          Util.tc_slow "gen-fuzz survives SIGKILL and resumes byte-identically"
            test_gen_fuzz_kill_and_resume;
          Util.tc_slow "bench planted hang degrades one cell, others identical"
            test_bench_planted_hang_degrades_one_cell;
        ] );
    ]
