(** The supervised execution layer, end to end: the reducer's deadline
    contract, [rpcc run --timeout] (a trap is reported as without it, a
    deadline is named in the stats document's [limit], which reads the
    same on both backends), crash-resumable
    campaigns (SIGKILL a [gen-fuzz] run mid-flight, rerun it on its
    [--journal], and demand byte-identical stdout), the bench grid's
    planted-hang drill (a never-terminating cell must land as a degraded
    cell after one timed-out attempt while every other cell of
    BENCH_counts.json stays byte-identical), and the campaign journals'
    identity: a journal resumes only the campaign that wrote it, once per
    job. *)

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

(** Run [argv] in [dir] with stdout/stderr redirected to files; returns
    the exit status, stdout and stderr. *)
let run_full ?(dir = ".") argv =
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
      (status, read_file out, read_file err))

(** [run_full] without stderr. *)
let run_capture ?dir argv =
  let (status, out, _) = run_full ?dir argv in
  (status, out)

let in_temp_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-resil-%s-%d" name (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  f dir

(* ------------------------------------------------------------------ *)
(* rpcc run --timeout: a trap is reported, a limit is named           *)
(* ------------------------------------------------------------------ *)

(** [rpcc run ARGS] on a file holding [src], after the shell assignments
    [env] (such as ["TMPDIR=DIR "]): the exit status, stdout and
    stderr. *)
let rpcc_run ?(env = "") args src =
  let rpcc = Filename.concat (Sys.getcwd ()) "../bin/rpcc.exe" in
  let file = Filename.temp_file "rp_timeout" ".c" in
  let out = Filename.temp_file "rp_timeout_out" ".txt" in
  let err = Filename.temp_file "rp_timeout_err" ".txt" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ file; out; err ])
    (fun () ->
      let oc = open_out_bin file in
      output_string oc src;
      close_out oc;
      let cmd =
        Printf.sprintf "%s%s run %s %s > %s 2> %s" env (Filename.quote rpcc)
          args (Filename.quote file) (Filename.quote out) (Filename.quote err)
      in
      let status = Sys.command cmd in
      (status, read_file out, read_file err))

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

(* The --stats-json document of a run stopped by a resource limit,
   parsed: its result and its limit. *)
let limit_doc out =
  let j = Json.parse out in
  (Json.member "result" j, Json.member "limit" j)

let run_timeout_tests =
  [
    Util.tc "a trap is reported, not retried" (fun () ->
        let (bare, _, bare_err) = rpcc_run "" trap_src in
        let (st, _, err) = rpcc_run "--timeout 5" trap_src in
        Util.check Alcotest.int "exit without --timeout" 1 bare;
        Util.check Alcotest.int "exit" 1 st;
        Util.check Alcotest.string "same stderr" bare_err err);
    Util.tc "stats document of a run that timed out" (fun () ->
        let (st, out, err) = rpcc_run "--timeout 0.05 --stats-json" loop_src in
        Util.check Alcotest.int "exit" 3 st;
        let result, limit = limit_doc out in
        Util.check Alcotest.bool "result null" true (result = Some Json.Null);
        match limit with
        | Some (Json.Str m) ->
          Util.check Alcotest.bool ("limit: " ^ m) true
            (String.starts_with ~prefix:"external stop after " m);
          Util.check Alcotest.string "stderr names the same limit"
            ("resource limit: " ^ m ^ "\n")
            err
        | _ -> Alcotest.fail "no limit string in the document");
    Util.tc "stats document of a run out of fuel" (fun () ->
        (* the limit is the interpreter's on both backends; the native row
           runs only with a C compiler, on a private binary store *)
        let store = Filename.temp_file "rp-fuel-store" "" in
        Sys.remove store;
        Sys.mkdir store 0o700;
        Fun.protect
          ~finally:(fun () ->
            ignore (Sys.command ("rm -rf " ^ Filename.quote store)))
        @@ fun () ->
        let native =
          match Rp_backend.Native.find_cc () with
          | None -> []
          | Some _ ->
            [ ("native", "TMPDIR=" ^ Filename.quote store ^ " ", "--native") ]
        in
        List.iter
          (fun (label, env, args) ->
            let (st, out, err) =
              rpcc_run ~env (args ^ " --fuel 1000 --stats-json") loop_src
            in
            Util.check Alcotest.int (label ^ ": exit") 3 st;
            Util.check Alcotest.string (label ^ ": stderr")
              "resource limit: fuel exhausted (1000 operations)\n" err;
            let result, limit = limit_doc out in
            Util.check Alcotest.bool (label ^ ": result null") true
              (result = Some Json.Null);
            Util.check Alcotest.bool (label ^ ": limit") true
              (limit = Some (Json.Str "fuel exhausted (1000 operations)")))
          (("interp", "", "") :: native));
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
  (* rerun on whatever the journal captured (possibly nothing, possibly
     everything — byte-identity must hold regardless) *)
  let (res_st, res_out) =
    run_capture ~dir ((rpcc :: common "resumed") @ [ "--journal"; journal ])
  in
  Alcotest.(check int) "same exit code" ref_st res_st;
  Alcotest.(check string) "byte-identical stdout after resume" ref_out res_out;
  (* a second rerun replays everything from the journal, still identical,
     and appends nothing *)
  let whole = read_file journal in
  let (_, res2_out) =
    run_capture ~dir ((rpcc :: common "resumed2") @ [ "--journal"; journal ])
  in
  Alcotest.(check string) "fully-replayed rerun still identical" ref_out
    res2_out;
  Alcotest.(check string) "a full replay appends nothing" whole
    (read_file journal)

(* ------------------------------------------------------------------ *)
(* bench --json: the planted-hang drill                                *)
(* ------------------------------------------------------------------ *)

(* A counter of bench's [resilience:] stderr line, printed only when one
   is nonzero: every counter reads 0 without the line. *)
let resilience_counter err key =
  String.split_on_char '\n' err
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | "resilience:" :: fields -> Some fields
         | _ -> None)
  |> Option.value ~default:[]
  |> List.find_map (fun field ->
         match String.split_on_char '=' field with
         | [ k; n ] when k = key -> int_of_string_opt n
         | _ -> None)
  |> Option.value ~default:0

let test_bench_planted_hang_degrades_one_cell () =
  let bench = Filename.concat (Sys.getcwd ()) "../bench/main.exe" in
  in_temp_dir "bench" @@ fun dir ->
  (* the counts document's bytes, the timings document, and the run's
     resilience counters *)
  let docs sub args =
    let d = Filename.concat dir sub in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    let (st, _, err) = run_full ~dir:d (bench :: "--json" :: args) in
    Alcotest.(check int) (sub ^ " exit 0") 0 st;
    ( read_file (Filename.concat d "BENCH_counts.json"),
      Json.of_file (Filename.concat d "BENCH_timings.json"),
      resilience_counter err )
  in
  let counts sub args =
    let text, _, counter = docs sub args in
    (text, Json.parse text, counter)
  in
  let journal = Filename.concat dir "grid.jsonl" in
  (try Sys.remove journal with Sys_error _ -> ());
  let baseline_text, baseline, _ =
    counts "base" [ "--jobs"; "4"; "--journal"; journal ]
  in
  (* the timeout must be generous enough that only the planted cell hits
     it even on a loaded machine: an honest cell timing out would be
     quarantined too.  The heaviest honest cells (triad) run ~0.8 s
     alone but multiples of that with four jobs contending on a small
     core count, so 10 s is the margin that keeps them honest. *)
  let _, planted, counter =
    counts "planted"
      [
        "--jobs"; "4"; "--job-timeout"; "10"; "--plant-hang";
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
    Alcotest.(check bool) "reason is the one timeout" true
      (String.starts_with ~prefix:"mlink under modref/with: timed out after "
         reason
      && not (contains reason "attempt"))
  | _ -> Alcotest.fail "planted cell should be degraded");
  (* the run's failure report reflects the drill: one attempt *)
  Alcotest.(check int) "exactly one timeout" 1 (counter "timeouts");
  Alcotest.(check int) "no crash" 0 (counter "crashed");
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
  (* rerun on the journal: the journaled cells are replayed, not
     recomputed, and the counts document is byte-identical to the run
     that wrote them *)
  let resumed_from sub path ~resumed ~recomputed =
    let counts, timings, counter =
      docs sub [ "--jobs"; "4"; "--journal"; path ]
    in
    Alcotest.(check string)
      (sub ^ ": counts document byte-equal")
      baseline_text counts;
    Alcotest.(check int) (sub ^ ": resumed cells") resumed (counter "resumed");
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

(* ------------------------------------------------------------------ *)
(* Campaign journals: whose they are, duplicates, fuzz resume          *)
(* ------------------------------------------------------------------ *)

let rpcc () = Filename.concat (Sys.getcwd ()) "../bin/rpcc.exe"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let fresh_journal dir name =
  let path = Filename.concat dir name in
  (try Sys.remove path with Sys_error _ -> ());
  path

let records path =
  List.length (String.split_on_char '\n' (String.trim (read_file path)))

(* Rerunning on [journal] under [argv] is refused: exit 2 with a usage
   line, before anything runs or is appended. *)
let refused ~dir argv journal =
  let before = read_file journal in
  let (st, _, err) = run_full ~dir (argv @ [ "--journal"; journal ]) in
  Alcotest.(check int) "exit 2" 2 st;
  Alcotest.(check bool) "usage on stderr" true
    (String.starts_with ~prefix:"usage: " err);
  Alcotest.(check string) "journal byte-identical" before (read_file journal)

let test_fuzz_campaigns_refuse_another_seed () =
  in_temp_dir "seeds" @@ fun dir ->
  List.iter
    (fun (cmd, trials, extra) ->
      let argv seed =
        [ rpcc (); cmd; "--trials"; string_of_int trials; "--seed"; seed ]
        @ extra
      in
      let journal = fresh_journal dir (cmd ^ "-seed42.jsonl") in
      let (st, _, _) = run_full ~dir (argv "42" @ [ "--journal"; journal ]) in
      Alcotest.(check int) (cmd ^ " --seed 42 exit 0") 0 st;
      Alcotest.(check int) (cmd ^ " journaled every trial") trials
        (records journal);
      refused ~dir (argv "43") journal)
    [
      ("gen-fuzz", 5, [ "--jobs"; "2"; "--out-dir"; dir ]);
      ("fuzz", 5, [ "--jobs"; "2" ]);
    ]

let test_duplicate_records_resume_once () =
  in_temp_dir "dups" @@ fun dir ->
  List.iter
    (fun (cmd, trials, extra) ->
      let argv =
        [ rpcc (); cmd; "--trials"; string_of_int trials ] @ extra
      in
      let journal = fresh_journal dir (cmd ^ ".jsonl") in
      let (st, out, _) = run_full ~dir (argv @ [ "--journal"; journal ]) in
      Alcotest.(check int) (cmd ^ " exit 0") 0 st;
      let twice = Filename.concat dir (cmd ^ "-twice.jsonl") in
      write_file twice (read_file journal ^ read_file journal);
      let (st2, out2, err2) = run_full ~dir (argv @ [ "--journal"; twice ]) in
      Alcotest.(check int) (cmd ^ " resumed exit 0") 0 st2;
      Alcotest.(check string) (cmd ^ " same stdout") out out2;
      Alcotest.(check bool)
        (cmd ^ " resumed counts jobs, not records")
        true
        (contains err2 (Printf.sprintf "resumed=%d " trials)))
    [ ("fuzz", 5, []); ("gen-fuzz", 4, [ "--out-dir"; dir ]) ]

let test_fuzz_resumes_from_a_partial_journal () =
  in_temp_dir "fuzz-resume" @@ fun dir ->
  let fuzz args =
    [ rpcc (); "fuzz"; "--seed"; "7"; "--trials"; "20" ] @ args
  in
  let journal = fresh_journal dir "fuzz.jsonl" in
  let (ref_st, ref_out, _) =
    run_full ~dir (fuzz [ "--jobs"; "2"; "--journal"; journal ])
  in
  let lines = String.split_on_char '\n' (String.trim (read_file journal)) in
  Alcotest.(check int) "one record per trial" 20 (List.length lines);
  (* what a run killed after its eighth record leaves *)
  write_file journal
    (String.concat ""
       (List.filteri (fun i _ -> i < 8) lines |> List.map (fun l -> l ^ "\n")));
  let (st, out, _) =
    run_full ~dir (fuzz [ "--jobs"; "1"; "--journal"; journal ])
  in
  Alcotest.(check int) "same exit code" ref_st st;
  Alcotest.(check string) "byte-identical stdout after resume" ref_out out;
  Alcotest.(check int) "the journal is whole again" 20 (records journal);
  let (_, out2, err2) = run_full ~dir (fuzz [ "--journal"; journal ]) in
  Alcotest.(check string) "fully-replayed rerun still identical" ref_out out2;
  Alcotest.(check bool) "every trial replayed" true
    (contains err2 "resumed=20 ")

(* SIGINT a journaled grid once it has journaled two cells: it exits 130
   with a hint to rerun on its journal.  Then one record's digest is
   rewritten under a valid CRC, and a rerun on that journal is
   refused. *)
let test_bench_sigint_then_foreign_record () =
  let bench = Filename.concat (Sys.getcwd ()) "../bench/main.exe" in
  in_temp_dir "bench-foreign" @@ fun dir ->
  (try Sys.remove (Filename.concat dir "BENCH_counts.json")
   with Sys_error _ -> ());
  let journal = fresh_journal dir "grid.jsonl" in
  let err = Filename.concat dir "interrupted.err" in
  let out_fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err_fd =
    Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process bench
      [| bench; "--json"; "--jobs"; "2"; "--journal"; journal |]
      Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let deadline = Rp_support.Clock.now () +. 300. in
  let complete () =
    try
      List.length (String.split_on_char '\n' (read_file journal)) - 1
    with Sys_error _ -> 0
  in
  while complete () < 2 && Rp_support.Clock.now () < deadline do
    Unix.sleepf 0.005
  done;
  Unix.kill pid Sys.sigint;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 130 -> ()
  | _ -> Alcotest.fail "an interrupted grid must exit 130");
  Alcotest.(check bool) "resume hint" true
    (contains (read_file err)
       ("; rerun with --journal " ^ journal ^ " to resume"));
  let foreign = fresh_journal dir "foreign.jsonl" in
  let w = Rp_support.Journal.create foreign in
  List.iteri
    (fun i r ->
      Rp_support.Journal.record w
        (match r with
        | Json.Obj (("campaign", _) :: rest) when i = 1 ->
          Json.Obj (("campaign", Json.Str (String.make 32 '0')) :: rest)
        | r -> r))
    (Rp_support.Journal.load journal);
  Rp_support.Journal.close w;
  Alcotest.(check bool) "one record rewritten" true
    (read_file foreign <> read_file journal);
  refused ~dir [ bench; "--json"; "--jobs"; "2" ] foreign;
  Alcotest.(check bool) "no counts document written" false
    (Sys.file_exists (Filename.concat dir "BENCH_counts.json"))

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
      ("run-timeout", run_timeout_tests);
      ( "campaigns",
        [
          Util.tc_slow "gen-fuzz survives SIGKILL and resumes byte-identically"
            test_gen_fuzz_kill_and_resume;
          Util.tc_slow "bench planted hang degrades one cell, others identical"
            test_bench_planted_hang_degrades_one_cell;
        ] );
      ( "journals",
        [
          Util.tc "gen-fuzz and fuzz refuse another seed's journal"
            test_fuzz_campaigns_refuse_another_seed;
          Util.tc "a record journaled twice resumes once"
            test_duplicate_records_resume_once;
          Util.tc "fuzz resumes from a partial journal byte-identically"
            test_fuzz_resumes_from_a_partial_journal;
          Util.tc_slow "bench: SIGINT exits 130; a foreign record is refused"
            test_bench_sigint_then_foreign_record;
        ] );
    ]
