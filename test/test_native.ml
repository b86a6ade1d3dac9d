(** The compiled-C backend: identifier mangling, the strict trailer
    parser, interpreter-equivalence over generated programs across the
    paper grid, the binary store's content keys and single-flight
    compiles, and the bench harness's --native CLI contract.

    Everything that needs a system C compiler is gated on
    {!Rp_backend.Native.find_cc} and skips visibly when there is none;
    the mangling, trailer, and CLI-conflict tests always run. *)

open Rp_driver
module Native = Rp_backend.Native
module Cgen = Rp_backend.Cgen
module I = Rp_exec.Interp

let cc = Native.find_cc ()

(* ------------------------------------------------------------------ *)
(* C identifier mangling                                               *)
(* ------------------------------------------------------------------ *)

let mangle_tests =
  [
    Util.tc "mangle: plain names pass through under the slot prefix"
      (fun () ->
        Util.check Alcotest.string "main" "fn_0_main" (Cgen.mangle 0 "main");
        Util.check Alcotest.string "snake" "fn_12_do_work"
          (Cgen.mangle 12 "do_work"));
    Util.tc "mangle: hostile characters are replaced, uniqueness held by \
             the index"
      (fun () ->
        Util.check Alcotest.string "punctuation" "fn_3_a_b_c"
          (Cgen.mangle 3 "a-b.c");
        Util.check Alcotest.string "spaces" "fn_4_x_y" (Cgen.mangle 4 "x y");
        (* two names that sanitize identically stay distinct C symbols *)
        Util.check Alcotest.bool "collision-proof" false
          (Cgen.mangle 5 "a-b" = Cgen.mangle 6 "a.b"));
    Util.tc "mangle: C keywords and the empty name are harmless" (fun () ->
        Util.check Alcotest.string "keyword" "fn_1_while"
          (Cgen.mangle 1 "while");
        Util.check Alcotest.string "empty" "fn_2_" (Cgen.mangle 2 ""));
  ]

(* ------------------------------------------------------------------ *)
(* Trailer parser: strictness is the point                             *)
(* ------------------------------------------------------------------ *)

let ok_trailer =
  "rpcc-native/1\n\
   status ok\n\
   ret int 42\n\
   checksum 12345\n\
   ops 100\n\
   loads 7\n\
   stores 3\n\
   outlen 6\n\
   func 60 4 2 main\n\
   func 40 3 1 helper\n\
   end\n"

let expect_error name s =
  Util.tc ("trailer: " ^ name ^ " quarantines") (fun () ->
      match Native.parse_trailer s with
      | (_ : Native.trailer) ->
        Alcotest.fail "malformed trailer parsed without error"
      | exception Native.Error _ -> ())

let trailer_tests =
  [
    Util.tc "trailer: a complete document round-trips" (fun () ->
        let t = Native.parse_trailer ok_trailer in
        Util.check Alcotest.bool "status ok" true (t.Native.status = `Ok);
        Util.check Alcotest.bool "ret" true
          (t.Native.ret = Rp_exec.Value.Vint 42);
        Util.check Alcotest.int "checksum" 12345 t.Native.checksum;
        Util.check Alcotest.int "ops" 100 t.Native.ops;
        Util.check Alcotest.int "loads" 7 t.Native.loads;
        Util.check Alcotest.int "stores" 3 t.Native.stores;
        Util.check Alcotest.int "outlen" 6 t.Native.outlen;
        Util.check Alcotest.int "funcs" 2 (List.length t.Native.funcs);
        let h = List.assoc "helper" t.Native.funcs in
        Util.check Alcotest.int "helper ops" 40 h.I.ops);
    Util.tc "trailer: trap status carries the message, no ret required"
      (fun () ->
        let t =
          Native.parse_trailer
            "rpcc-native/1\nstatus trap\nmsg division by zero\nchecksum 1\n\
             ops 5\nloads 0\nstores 0\noutlen 0\nend\n"
        in
        Util.check Alcotest.bool "status" true (t.Native.status = `Trap);
        Util.check Alcotest.string "msg" "division by zero" t.Native.msg);
    expect_error "bad magic" "rpcc-native/999\nstatus ok\nend\n";
    expect_error "empty input" "";
    expect_error "truncated (no end marker)"
      "rpcc-native/1\nstatus ok\nret int 1\nchecksum 1\nops 1\nloads 0\n\
       stores 0\noutlen 0\n";
    expect_error "garbage line"
      "rpcc-native/1\nstatus ok\nwibble 3\nend\n";
    expect_error "missing counters"
      "rpcc-native/1\nstatus ok\nret int 1\nend\n";
    expect_error "non-numeric field"
      "rpcc-native/1\nstatus ok\nret int 1\nchecksum x\nops 1\nloads 0\n\
       stores 0\noutlen 0\nend\n";
    expect_error "unknown status" "rpcc-native/1\nstatus maybe\nend\n";
    expect_error "ok without ret"
      "rpcc-native/1\nstatus ok\nchecksum 1\nops 1\nloads 0\nstores 0\n\
       outlen 0\nend\n";
  ]

(* ------------------------------------------------------------------ *)
(* Trailer parser under adversarial input                              *)
(* ------------------------------------------------------------------ *)

(* Property: no mechanical mangling of a well-formed trailer can make
   the parser {e lie} — every mutation either raises [Native.Error] or
   parses with all scalar fields (status, ret, checksum, the three
   counters, outlen) exactly the reference document's, and with every
   per-function row genuine.  Func rows can be {e lost} (they are
   free-form accumulation lines after the required fields, e.g. when a
   swap moves [end] above them — the per-func comparison one layer up
   catches that), but never forged or altered without an error.  This
   is the native path's last line of defense: a cached binary that
   bit-rots (or a hostile one) answers through exactly this parser,
   and wrong-but-plausible counts are the one outcome that must be
   impossible.  Mutations are the realistic corruption shapes:
   truncation at any byte (torn write), line swaps (field reordering),
   line deletion, digit rot, and garbage insertion. *)
let trailer_adversarial_prop =
  let open QCheck in
  let lines = String.split_on_char '\n' ok_trailer in
  let nlines = List.length lines in
  let digit_positions =
    List.filter
      (fun i -> match ok_trailer.[i] with '0' .. '9' -> true | _ -> false)
      (List.init (String.length ok_trailer) Fun.id)
  in
  let mangle_gen =
    Gen.(
      oneof
        [
          (* truncate at an arbitrary byte boundary *)
          map
            (fun k -> String.sub ok_trailer 0 (k mod String.length ok_trailer))
            (int_bound (String.length ok_trailer - 1));
          (* swap two lines *)
          map2
            (fun i j ->
              let i = i mod nlines and j = j mod nlines in
              let arr = Array.of_list lines in
              let t = arr.(i) in
              arr.(i) <- arr.(j);
              arr.(j) <- t;
              String.concat "\n" (Array.to_list arr))
            (int_bound (nlines - 1))
            (int_bound (nlines - 1));
          (* delete one line *)
          map
            (fun i ->
              let i = i mod nlines in
              String.concat "\n" (List.filteri (fun j _ -> j <> i) lines))
            (int_bound (nlines - 1));
          (* rot one digit into a letter: a numeric field, the magic
             version, or a func counter stops parsing as a number *)
          map2
            (fun pos c ->
              let pos = List.nth digit_positions (pos mod List.length digit_positions) in
              let b = Bytes.of_string ok_trailer in
              Bytes.set b pos (Char.chr (Char.code 'A' + (c mod 26)));
              Bytes.to_string b)
            (int_bound 10_000)
            (int_bound 25);
          (* inject a garbage line at an arbitrary position *)
          map2
            (fun i g ->
              let i = i mod nlines in
              let garbage = Printf.sprintf "garbage %d" g in
              String.concat "\n"
                (List.concat
                   (List.mapi
                      (fun j l -> if j = i then [ garbage; l ] else [ l ])
                      lines)))
            (int_bound (nlines - 1))
            (int_bound 1000);
        ])
  in
  let reference = Native.parse_trailer ok_trailer in
  let never_lies (t : Native.trailer) =
    t.Native.status = reference.Native.status
    && t.Native.msg = reference.Native.msg
    && t.Native.ret = reference.Native.ret
    && t.Native.checksum = reference.Native.checksum
    && t.Native.ops = reference.Native.ops
    && t.Native.loads = reference.Native.loads
    && t.Native.stores = reference.Native.stores
    && t.Native.outlen = reference.Native.outlen
    && List.for_all
         (fun f -> List.mem f reference.Native.funcs)
         t.Native.funcs
  in
  QCheck.Test.make ~count:500
    ~name:"trailer: manglings raise or stay truthful, never lie"
    (make mangle_gen) (fun s ->
      match Native.parse_trailer s with
      | exception Native.Error _ -> true
      | t ->
        if never_lies t then true
        else
          QCheck.Test.fail_reportf
            "mangled trailer parsed to different values without error:\n%s" s)

(* ------------------------------------------------------------------ *)
(* Interpreter equivalence on generated programs, across the grid      *)
(* ------------------------------------------------------------------ *)

(* The backend's whole contract in one property: for a generated (safe,
   terminating) program, every observable of the native run — output,
   checksum, total and per-function counts — equals the interpreter's,
   under every paper-grid configuration.  Trials are drawn from the same
   generator gen-fuzz uses. *)
let equivalence_prop cc =
  QCheck.Test.make ~count:3 ~name:"native run == interpreted run (paper grid)"
    QCheck.(make Gen.(int_bound 10_000))
    (fun trial ->
      let src = Rp_fuzz.Gen.program_of_seed ~seed:7 ~trial in
      List.for_all
        (fun (cname, config) ->
          let prog, _ = Pipeline.compile ~config src in
          let ri = I.run prog in
          let rn = Native.run ~cc prog in
          let agree =
            ri.I.output = rn.I.output
            && ri.I.checksum = rn.I.checksum
            && ri.I.total = rn.I.total
            && ri.I.per_func = rn.I.per_func
          in
          if not agree then
            QCheck.Test.fail_reportf
              "trial %d under %s: interpreter ops/loads/stores %d/%d/%d \
               checksum %d; native %d/%d/%d checksum %d"
              trial cname ri.I.total.I.ops ri.I.total.I.loads
              ri.I.total.I.stores ri.I.checksum rn.I.total.I.ops
              rn.I.total.I.loads rn.I.total.I.stores rn.I.checksum;
          agree)
        Config.paper_grid)

(* A trapping program must trap natively with the byte-identical
   message, and a fuel-bounded run must report the same limit. *)
let error_path_tests cc =
  [
    Util.tc_slow "native trap message is byte-identical" (fun () ->
        let src = "int main() { int x; x = 0; return 1 / x; }" in
        let prog, _ = Pipeline.compile ~config:Config.default src in
        let interp_msg =
          match I.run prog with
          | _ -> Alcotest.fail "interpreter did not trap"
          | exception Rp_exec.Value.Runtime_error m -> m
        in
        match Native.run ~cc prog with
        | _ -> Alcotest.fail "native did not trap"
        | exception Rp_exec.Value.Runtime_error m ->
          Util.check Alcotest.string "trap message" interp_msg m);
    Util.tc_slow "native memory trap messages equal the interpreter's"
      (fun () ->
        List.iter
          (fun (name, src, _) ->
            let prog, _ = Pipeline.compile ~config:Config.default src in
            let interp_msg =
              match I.run prog with
              | _ -> Alcotest.failf "%s: interpreter did not trap" name
              | exception Rp_exec.Value.Runtime_error m -> m
            in
            match Native.run ~cc prog with
            | _ -> Alcotest.failf "%s: native did not trap" name
            | exception Rp_exec.Value.Runtime_error m ->
              Util.check Alcotest.string name interp_msg m)
          Util.memory_traps);
    Util.tc_slow "native agrees once the object table outgrows its start"
      (fun () ->
        let prog, _ = Pipeline.compile ~config:Config.default Util.growth_src in
        let ri = I.run prog and rn = Native.run ~cc prog in
        Util.check Alcotest.string "interp output" Util.growth_output
          ri.I.output;
        Util.check Alcotest.string "output" ri.I.output rn.I.output;
        Util.check Alcotest.int "checksum" ri.I.checksum rn.I.checksum;
        Util.check Alcotest.bool "totals" true (ri.I.total = rn.I.total);
        Util.check Alcotest.bool "per_func" true (ri.I.per_func = rn.I.per_func));
    Util.tc_slow "native fuel exhaustion matches the interpreter" (fun () ->
        let src = "int main() { while (1) {} return 0; }" in
        let prog, _ = Pipeline.compile ~config:Config.default src in
        let interp_msg =
          match I.run ~fuel:10_000 prog with
          | _ -> Alcotest.fail "interpreter did not hit fuel"
          | exception I.Resource_limit m -> m
        in
        match Native.run ~fuel:10_000 ~cc prog with
        | _ -> Alcotest.fail "native did not hit fuel"
        | exception I.Resource_limit m ->
          Util.check Alcotest.string "limit message" interp_msg m);
  ]

(* ------------------------------------------------------------------ *)
(* Binary store: content keys and single-flight compiles               *)
(* ------------------------------------------------------------------ *)

(* A private, empty binary store for one test, removed afterwards. *)
let with_store name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-native-%s-%d" name (Unix.getpid ()))
  in
  let rm () = ignore (Sys.command ("rm -rf " ^ Filename.quote dir)) in
  rm ();
  Fun.protect ~finally:rm (fun () -> f (Rp_support.Cas.open_ dir))

let binaries cache =
  List.length (Util.native_bins (Rp_support.Cas.root cache))

(* allroots' six grid cells emit one translation unit: compiled
   concurrently on a cold store, cc runs once and the other five read
   the binary it stored. *)
let dedupe_test cc =
  Util.tc_slow "binary store: allroots' six grid cells run cc once" (fun () ->
      let src = (Rp_suite.Programs.find "allroots").Rp_suite.Programs.source in
      let progs =
        Array.of_list
          (List.map
             (fun (_, config) -> fst (Pipeline.compile ~config src))
             Config.paper_grid)
      in
      with_store "dedupe" @@ fun cache ->
      let compiled =
        Rp_support.Pool.run_exn ~jobs:4 (Native.compile ~cache ~cc) progs
      in
      let count hit =
        Array.fold_left (fun n (_, h) -> if h = hit then n + 1 else n) 0
          compiled
      in
      Util.check Alcotest.int "misses" 1 (count false);
      Util.check Alcotest.int "hits" 5 (count true);
      Util.check Alcotest.int "native-bin objects" 1 (binaries cache);
      Array.iteri
        (fun i (bin, _) ->
          Fun.protect
            ~finally:(fun () -> try Sys.remove bin with Sys_error _ -> ())
            (fun () ->
              let rn = Native.exec_bin bin and ri = I.run progs.(i) in
              Util.check Alcotest.string "output" ri.I.output rn.I.output;
              Util.check Alcotest.int "checksum" ri.I.checksum rn.I.checksum;
              Util.check Alcotest.bool "totals" true (ri.I.total = rn.I.total)))
        compiled)

(* needs no C compiler: every claimant's cc fails, and each must still
   get the claim in turn, fail on its own, and let the next one go *)
let failed_leader_test =
  Util.tc "binary store: a failing leader releases its claim" (fun () ->
      let broken =
        {
          Native.path = "/nonexistent/rpcc-test-cc";
          flags = [];
          identity = "test-broken-cc";
        }
      in
      let src = "int main() { print_int(7); return 0; }" in
      let progs =
        Array.init 4 (fun _ -> fst (Pipeline.compile ~config:Config.default src))
      in
      with_store "leader" @@ fun cache ->
      (* a leaked claim blocks its waiters for good: run the pool on a
         domain of its own and fail, rather than hang, if it never ends *)
      let outcomes = Atomic.make None in
      let d =
        Domain.spawn (fun () ->
            Atomic.set outcomes
              (Some
                 (Rp_support.Pool.run ~jobs:4
                    (Native.compile ~cache ~cc:broken)
                    progs)))
      in
      let deadline = Unix.gettimeofday () +. 60. in
      let rec wait () =
        match Atomic.get outcomes with
        | Some o -> o
        | None when Unix.gettimeofday () > deadline ->
          Alcotest.fail "deadlock: a claim outlived its failed compile"
        | None ->
          Unix.sleepf 0.01;
          wait ()
      in
      let outcomes = wait () in
      Domain.join d;
      outcomes
      |> Array.iter (function
           | Error (Native.Error _) -> ()
           | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
           | Ok _ -> Alcotest.fail "a missing compiler produced a binary");
      Util.check Alcotest.int "native-bin objects" 0 (binaries cache))

(* ------------------------------------------------------------------ *)
(* bench --native CLI contract                                         *)
(* ------------------------------------------------------------------ *)

(* needs no C compiler: the conflicts are rejected before cc probing *)
let bench_cli_tests =
  let bench_exit args =
    Sys.command
      (Printf.sprintf "../bench/main.exe %s >/dev/null 2>&1" args)
  in
  [
    Util.tc "bench: --native without --json is a usage error" (fun () ->
        Util.check Alcotest.int "exit code" 2 (bench_exit "--native"));
    Util.tc "bench: --native rides the daemon protocol, so a dead socket \
             is the only failure"
      (fun () ->
        (* mode-over-daemon is legal since rpcc-serve/2; the request
           never reaches a cc probe, it fails at connect *)
        Util.check Alcotest.int "exit code" 2
          (bench_exit "--json --native --via-daemon /tmp/nope.sock"));
    Util.tc "bench: --plant-cc-failure without --native is a usage error"
      (fun () ->
        Util.check Alcotest.int "exit code" 2 (bench_exit "--plant-cc-failure"));
    Util.tc "bench: --plant-cc-failure cannot ride the daemon" (fun () ->
        (* the planted compiler is a local in-process fault; the daemon
           would silently probe its own real cc instead *)
        Util.check Alcotest.int "exit code" 2
          (bench_exit
             "--json --native --plant-cc-failure --via-daemon /tmp/nope.sock"));
    Util.tc "bench: unknown flags are rejected, not run as table mode"
      (fun () ->
        Util.check Alcotest.int "exit code" 124
          (bench_exit "--jsno --job-timout 5"));
    Util.tc "bench: a malformed --jobs is a parse error" (fun () ->
        Util.check Alcotest.int "exit code" 124
          (bench_exit "--json --jobs two"));
    Util.tc "bench: negative --retries is rejected, not clamped" (fun () ->
        Util.check Alcotest.int "exit code" 2
          (bench_exit "--json --retries=-3"));
    Util.tc "bench: --breaker-threshold 0 is rejected, not clamped"
      (fun () ->
        Util.check Alcotest.int "exit code" 2
          (bench_exit "--json --breaker-threshold 0"));
    Util.tc "bench: --job-timeout with --via-daemon is a usage error"
      (fun () ->
        Util.check Alcotest.int "exit code" 2
          (bench_exit "--json --via-daemon /tmp/nope.sock --job-timeout 5"));
    Util.tc "bench: --breaker-threshold with --via-daemon is a usage error"
      (fun () ->
        Util.check Alcotest.int "exit code" 2
          (bench_exit
             "--json --via-daemon /tmp/nope.sock --breaker-threshold 2"));
    Util.tc "bench: --cc-flags without --native is a usage error" (fun () ->
        Util.check Alcotest.int "exit code" 2 (bench_exit "--cc-flags=-O2"));
    Util.tc "bench: --plant-hang must name a grid cell" (fun () ->
        Util.check Alcotest.int "exit code" 2
          (bench_exit "--json --job-timeout 1 --plant-hang mlink:nope"));
  ]

let () =
  let native_tests =
    match cc with
    | None ->
      [
        Util.tc "SKIPPED: no system C compiler (probed `cc --version`)"
          (fun () -> ());
      ]
    | Some cc ->
      QCheck_alcotest.to_alcotest ~long:true (equivalence_prop cc)
      :: dedupe_test cc :: error_path_tests cc
  in
  Alcotest.run "native"
    [
      ("mangle", mangle_tests);
      ("trailer", trailer_tests);
      ( "trailer-adversarial",
        [ QCheck_alcotest.to_alcotest trailer_adversarial_prop ] );
      ("equivalence", native_tests);
      ("binary-store", [ failed_leader_test ]);
      ("bench-cli", bench_cli_tests);
    ]
