(** The compiled-C backend: identifier mangling, the strict trailer
    parser, interpreter-equivalence over generated programs across the
    paper grid, the binary store's content keys and single-flight
    compiles, the one failure path (every infrastructure fault is
    {!Rp_backend.Native.Error}, answered by the interpreter rung), and
    the bench harness's --native CLI contract.

    Everything that needs a system C compiler is gated on
    {!Rp_backend.Native.find_cc} and skips visibly when there is none;
    the mangling, trailer, CLI-conflict and all but two failure-path
    tests always run. *)

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
   elapsed_ns 5000\n\
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
        Util.check Alcotest.int "elapsed_ns" 5000 t.Native.elapsed_ns;
        Util.check Alcotest.int "funcs" 2 (List.length t.Native.funcs);
        let h = List.assoc "helper" t.Native.funcs in
        Util.check Alcotest.int "helper ops" 40 h.I.ops);
    Util.tc "trailer: trap status carries the message, no ret required"
      (fun () ->
        let t =
          Native.parse_trailer
            "rpcc-native/1\nstatus trap\nmsg division by zero\nchecksum 1\n\
             ops 5\nloads 0\nstores 0\noutlen 0\nelapsed_ns 1\nend\n"
        in
        Util.check Alcotest.bool "status" true
          (t.Native.status = `Trap "division by zero"));
    Util.tc "trailer: a limit is its kind and count" (fun () ->
        List.iter
          (fun (line, limit) ->
            let t =
              Native.parse_trailer
                ("rpcc-native/1\nstatus limit " ^ line
               ^ "\nchecksum 1\nops 5\nloads 0\nstores 0\noutlen 0\n\
                  elapsed_ns 1\nend\n")
            in
            Util.check Alcotest.bool line true (t.Native.status = `Limit limit))
          [
            ("fuel 4", I.Fuel 4); ("depth 100", I.Depth 100);
            ("stop 4096", I.Stopped 4096);
          ]);
    Util.tc "trailer: no grid cell's C carries a limit's text" (fun () ->
        let src =
          "int g; int f(int n) { if (n) return f(n - 1); return g; }\n\
           int main() { int i; for (i = 0; i < 9; i++) g = g + f(i); \
           return g; }"
        in
        List.iter
          (fun (cname, config) ->
            let c = Cgen.emit (fst (Pipeline.compile ~config src)) in
            List.iter
              (fun text ->
                Util.check Alcotest.bool (cname ^ ": " ^ text) false
                  (Util.contains ~sub:text c))
              [ "fuel exhausted"; "external stop"; "call stack overflow" ])
          Config.paper_grid);
    Util.tc "trailer: elapsed_ns is read on the monotonic clock" (fun () ->
        let c = Cgen.emit (Util.compile "int main() { return 0; }") in
        Util.check Alcotest.bool "clock_gettime(CLOCK_MONOTONIC" true
          (Util.contains ~sub:"clock_gettime(CLOCK_MONOTONIC" c);
        Util.check Alcotest.bool "no gettimeofday" false
          (Util.contains ~sub:"gettimeofday" c));
    expect_error "bad magic" "rpcc-native/999\nstatus ok\nend\n";
    expect_error "empty input" "";
    expect_error "truncated (no end marker)"
      "rpcc-native/1\nstatus ok\nret int 1\nchecksum 1\nops 1\nloads 0\n\
       stores 0\noutlen 0\nelapsed_ns 1\n";
    expect_error "garbage line"
      "rpcc-native/1\nstatus ok\nwibble 3\nend\n";
    expect_error "missing counters"
      "rpcc-native/1\nstatus ok\nret int 1\nend\n";
    expect_error "non-numeric field"
      "rpcc-native/1\nstatus ok\nret int 1\nchecksum x\nops 1\nloads 0\n\
       stores 0\noutlen 0\nelapsed_ns 1\nend\n";
    expect_error "unknown status" "rpcc-native/1\nstatus maybe\nend\n";
    expect_error "unknown limit kind"
      "rpcc-native/1\nstatus limit time 3\nchecksum 1\nops 1\nloads 0\n\
       stores 0\noutlen 0\nelapsed_ns 1\nend\n";
    expect_error "limit without a count"
      "rpcc-native/1\nstatus limit fuel\nchecksum 1\nops 1\nloads 0\n\
       stores 0\noutlen 0\nelapsed_ns 1\nend\n";
    expect_error "ok without ret"
      "rpcc-native/1\nstatus ok\nchecksum 1\nops 1\nloads 0\nstores 0\n\
       outlen 0\nelapsed_ns 1\nend\n";
    expect_error "missing elapsed_ns"
      "rpcc-native/1\nstatus ok\nret int 1\nchecksum 1\nops 1\nloads 0\n\
       stores 0\noutlen 0\nend\n";
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
    && t.Native.ret = reference.Native.ret
    && t.Native.checksum = reference.Native.checksum
    && t.Native.ops = reference.Native.ops
    && t.Native.loads = reference.Native.loads
    && t.Native.stores = reference.Native.stores
    && t.Native.outlen = reference.Native.outlen
    && t.Native.elapsed_ns = reference.Native.elapsed_ns
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
        let interp_limit =
          match I.run ~fuel:10_000 prog with
          | _ -> Alcotest.fail "interpreter did not hit fuel"
          | exception I.Resource_limit l -> l
        in
        match Native.run ~fuel:10_000 ~cc prog with
        | _ -> Alcotest.fail "native did not hit fuel"
        | exception I.Resource_limit l ->
          Util.check Alcotest.string "limit" (I.limit_message interp_limit)
            (I.limit_message l));
    Util.tc_slow "native fuel runs out on the interpreter's operation"
      (fun () ->
        (* fuel is an argument of the binary: one compile serves every F *)
        let prog = Util.compile Util.fuel_trap_src in
        let bin, _ = Native.compile ~cc prog in
        Fun.protect
          ~finally:(fun () -> try Sys.remove bin with Sys_error _ -> ())
          (fun () ->
            Util.fuel_sweep (fun ~fuel -> ignore (Native.exec_bin ~fuel bin))));
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
(* One failure path: every infrastructure fault is Native.Error        *)
(* ------------------------------------------------------------------ *)

let ladder_src = "int main() { print_int(7); return 0; }"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the ladder answered from [rung] (the interpreter unless said), with
   the interpreter's result *)
let check_rung ?(rung = `Interp) prog (answered, (t : Native.timed)) =
  let ri = I.run prog in
  Util.check Alcotest.bool "rung" true (answered = rung);
  Util.check Alcotest.string "output" ri.I.output t.Native.result.I.output;
  Util.check Alcotest.int "checksum" ri.I.checksum t.Native.result.I.checksum;
  Util.check Alcotest.bool "totals" true (ri.I.total = t.Native.result.I.total)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* needs no C compiler: a compiler that logs each call, then runs [body]
   (by default, fails) *)
let with_fake_cc ?(body = "exit 1") f =
  let dir = Filename.temp_file "rp-fake-cc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let log = Filename.concat dir "calls.log" in
  let script = Filename.concat dir "cc" in
  Out_channel.with_open_bin script (fun oc ->
      Printf.fprintf oc "#!/bin/sh\necho called >> %s\n%s\n"
        (Filename.quote log) body);
  Unix.chmod script 0o700;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      let calls () =
        if Sys.file_exists log then
          List.length
            (String.split_on_char '\n' (String.trim (read_file log)))
        else 0
      in
      f { Native.path = script; flags = []; identity = "fake-cc" } calls)

(* needs no C compiler: a private directory holding [prog.c]
   ([ladder_src]) and a "binary" that touches [ran], runs [body] and
   writes a valid trailer; [f] gets the directory and a fake cc that
   answers --version and "compiles" by copying that binary out *)
let with_fake_toolchain ?(body = "") f =
  let dir = Filename.temp_file "rp-toolchain" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let file name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      Out_channel.with_open_bin (file "prog.c") (fun oc ->
          output_string oc ladder_src);
      Out_channel.with_open_bin (file "bin.sh") (fun oc ->
          Printf.fprintf oc
            "#!/bin/sh\ntouch %s\n%s\nprintf 'rpcc-native/1\\nstatus \
             ok\\nret int 0\\nchecksum 5381\\nops 1\\nloads 0\\nstores \
             0\\noutlen 0\\nelapsed_ns 1\\nend\\n' > \"$1\"\n"
            (Filename.quote (file "ran"))
            body);
      with_fake_cc
        ~body:
          (Printf.sprintf
             "case \"$1\" in --version) echo fake-cc; exit 0;; esac\n\
              while [ $# -gt 1 ]; do\n\
              [ \"$1\" = -o ] && out=$2; shift\n\
              done\n\
              cp %s \"$out\""
             (Filename.quote (file "bin.sh")))
      @@ fun cc _ -> f dir cc)

let failure_path_tests =
  [
    Util.tc "exec_bin: a file the kernel will not exec is an Error, no fd \
             leaks"
      (fun () ->
        let bin = Filename.temp_file "rp-noexec" ".bin" in
        Fun.protect
          ~finally:(fun () -> Sys.remove bin)
          (fun () ->
            Out_channel.with_open_bin bin (fun oc ->
                output_string oc "not a program\n");
            Unix.chmod bin 0o700;
            let exec () =
              match Native.exec_bin bin with
              | _ -> Alcotest.fail "a non-executable file ran"
              | exception Native.Error _ -> ()
            in
            exec ();
            let before = open_fds () in
            for _ = 1 to 50 do
              exec ()
            done;
            Util.check Alcotest.int "open descriptors" before (open_fds ())));
    Util.tc "ladder: a failing cc runs once, the interpreter answers"
      (fun () ->
        with_fake_cc @@ fun cc calls ->
        let prog = Util.compile ladder_src in
        for n = 1 to 2 do
          check_rung prog (Native.run_laddered ~cc:(Some cc) prog);
          Util.check Alcotest.int "cc calls" n (calls ())
        done);
    Util.tc "ladder: a compiler that does not exist answers from the \
             interpreter"
      (fun () ->
        let prog = Util.compile ladder_src in
        let cc =
          { Native.path = "/nonexistent/rpcc-test-cc"; flags = [];
            identity = "test-missing-cc" }
        in
        check_rung prog (Native.run_laddered ~cc:(Some cc) prog));
    Util.tc "compile: a cc killed by a signal names it" (fun () ->
        with_fake_cc ~body:"kill -9 $$" @@ fun cc _ ->
        match Native.compile ~cc (Util.compile ladder_src) with
        | _ -> Alcotest.fail "a killed cc produced a binary"
        | exception Native.Error m ->
          Util.check Alcotest.bool m true
            (String.starts_with ~prefix:"cc killed by SIGKILL" m));
    Util.tc "compile: cc's children die with it" (fun () ->
        (* dead once /proc has no entry or shows a zombie: an orphan's
           reaping is up to whoever adopts it *)
        let alive pid =
          match read_file (Printf.sprintf "/proc/%d/stat" pid) with
          | stat -> (
            match String.rindex_opt stat ')' with
            | Some i -> stat.[i + 2] <> 'Z'
            | None -> false)
          | exception Sys_error _ -> false
        in
        (* a cc that fails, and one that hangs until a stop request (made
           once its child has started): the child must be gone once
           [compile] raises, an Error for the failure and the stopped
           limit for the stop *)
        List.iter
          (fun (last, stop) ->
            let pidfile = Filename.temp_file "rp-cc-child" ".pid" in
            let started () = String.trim (read_file pidfile) <> "" in
            let should_stop = if stop then Some started else None in
            let child () = int_of_string (String.trim (read_file pidfile)) in
            Fun.protect
              ~finally:(fun () ->
                (try Unix.kill (child ()) Sys.sigkill with _ -> ());
                Sys.remove pidfile)
              (fun () ->
                with_fake_cc
                  ~body:
                    (Printf.sprintf "sleep 987 &\necho $! > %s\n%s"
                       (Filename.quote pidfile) last)
                @@ fun cc _ ->
                (match
                   Native.compile ?should_stop ~cc (Util.compile ladder_src)
                 with
                | _ -> Alcotest.fail "a failing cc produced a binary"
                | exception Native.Error _ when not stop -> ()
                | exception I.Resource_limit (I.Stopped 0) when stop -> ());
                let pid = child () in
                let rec gone polls =
                  (not (alive pid))
                  || polls > 0
                     && (Unix.sleepf 0.01;
                         gone (polls - 1))
                in
                Util.check Alcotest.bool
                  ("the child of a cc ending in " ^ last ^ " is gone")
                  true (gone 200)))
          [ ("exit 1", false); ("wait", true) ]);
    Util.tc "ladder: a stop while cc runs is the stopped limit, never the \
             interpreter's answer"
      (fun () ->
        (* [ladder_src] runs far fewer than 4096 operations, so an
           interpreter rung would finish before its first poll *)
        let started = Filename.temp_file "rp-cc-started" "" in
        Sys.remove started;
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists started then Sys.remove started)
          (fun () ->
            with_fake_cc
              ~body:
                (Printf.sprintf "touch %s\nexec sleep 987"
                   (Filename.quote started))
            @@ fun cc _ ->
            match
              Native.run_laddered
                ~should_stop:(fun () -> Sys.file_exists started)
                ~cc:(Some cc) (Util.compile ladder_src)
            with
            | _ -> Alcotest.fail "a stopped job was answered"
            | exception I.Resource_limit (I.Stopped 0) -> ()));
    Util.tc "binary store: the root is private to its user" (fun () ->
        with_fake_toolchain @@ fun dir cc ->
        let file name = Filename.concat dir name in
        let root tmp =
          Filename.concat tmp
            (Printf.sprintf "rpcc-native-cas-%d" (Unix.getuid ()))
        in
        let native ~tmp cmd =
          Sys.command
            (Printf.sprintf "cd %s && PATH=%s:$PATH TMPDIR=%s %s > out 2> err"
               (Filename.quote dir)
               (Filename.quote (Filename.dirname cc.Native.path))
               (Filename.quote tmp) cmd)
        in
        let here exe = Filename.quote (Filename.concat (Sys.getcwd ()) exe) in
        (* a root another user could have planted a binary in *)
        let shared = file "shared" in
        Sys.mkdir shared 0o700;
        Sys.mkdir (root shared) 0o700;
        Unix.chmod (root shared) 0o777;
        List.iter
          (fun cmd ->
            Util.check Alcotest.int (cmd ^ ": exit") 2
              (native ~tmp:shared cmd);
            Util.check Alcotest.bool (cmd ^ ": names the root") true
              (Util.contains ~sub:(root shared) (read_file (file "err")));
            Util.check Alcotest.bool (cmd ^ ": no binary ran") false
              (Sys.file_exists (file "ran"));
            Util.check Alcotest.bool (cmd ^ ": nothing stored") false
              (Sys.file_exists (Filename.concat (root shared) "objects")))
          [
            here "../bin/rpcc.exe" ^ " run --native prog.c";
            here "../bench/main.exe" ^ " --json --native";
          ];
        (* a fresh TMPDIR: the root is made private *)
        let fresh = file "fresh" in
        Sys.mkdir fresh 0o755;
        Util.check Alcotest.int "fresh: exit" 0
          (native ~tmp:fresh (here "../bin/rpcc.exe" ^ " run --native prog.c"));
        Util.check Alcotest.bool "fresh: the binary ran" true
          (Sys.file_exists (file "ran"));
        Util.check Alcotest.int "fresh: root mode" 0o700
          (Unix.stat (root fresh)).Unix.st_perm);
    Util.tc "oracle: a trial stopped while cc runs is inconclusive"
      (fun () ->
        (* the stop request ends cc with the stopped limit, which
           carries no signal: no divergence, no reproducer *)
        let started = Filename.temp_file "rp-cc-started" "" in
        Sys.remove started;
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists started then Sys.remove started)
          (fun () ->
            with_fake_cc
              ~body:
                (Printf.sprintf "touch %s\nexec sleep 987"
                   (Filename.quote started))
            @@ fun cc _ ->
            let module D = Rp_fuzz.Difforacle in
            match
              D.check
                ~should_stop:(fun () -> Sys.file_exists started)
                ~native:cc ladder_src
            with
            | D.Inconclusive _ -> ()
            | o -> Alcotest.failf "expected inconclusive, got %a" D.pp_outcome o));
    Util.tc "rpcc run --native: a SIGINT while the binary runs exits 130"
      (fun () ->
        (* the "binary" runs 1 s; rpcc alone gets the SIGINT *)
        with_fake_toolchain ~body:"sleep 1" @@ fun dir cc ->
        let file name = Filename.concat dir name in
        let rpcc = Filename.concat (Sys.getcwd ()) "../bin/rpcc.exe" in
        let env =
          Unix.environment () |> Array.to_list
          |> List.filter (fun v ->
                 not
                   (String.starts_with ~prefix:"PATH=" v
                   || String.starts_with ~prefix:"TMPDIR=" v))
          |> List.append
               [
                 "PATH=" ^ Filename.dirname cc.Native.path ^ ":"
                 ^ Sys.getenv "PATH";
                 "TMPDIR=" ^ dir;
               ]
          |> Array.of_list
        in
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Fun.protect
            ~finally:(fun () -> Unix.close null)
            (fun () ->
              Unix.create_process_env rpcc
                [| rpcc; "run"; "--native"; file "prog.c" |]
                env Unix.stdin null null)
        in
        let deadline = Rp_support.Clock.now () +. 60. in
        while
          (not (Sys.file_exists (file "ran")))
          && Rp_support.Clock.now () < deadline
        do
          Unix.sleepf 0.01
        done;
        Unix.kill pid Sys.sigint;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 130 -> ()
        | _, Unix.WEXITED n -> Alcotest.failf "rpcc exited %d" n
        | _ -> Alcotest.fail "rpcc was killed");
    Util.tc "exec_bin: a binary killed by a signal names it" (fun () ->
        let bin = Filename.temp_file "rp-segv" ".bin" in
        Fun.protect
          ~finally:(fun () -> Sys.remove bin)
          (fun () ->
            Out_channel.with_open_bin bin (fun oc ->
                output_string oc "#!/bin/sh\nkill -SEGV $$\n");
            Unix.chmod bin 0o700;
            match Native.exec_bin bin with
            | _ -> Alcotest.fail "a killed binary answered"
            | exception Native.Error m ->
              Util.check Alcotest.bool m true
                (String.starts_with ~prefix:"native binary killed by SIGSEGV"
                   m)));
    Util.tc "ladder: a missing temp directory answers from the interpreter"
      (fun () ->
        with_fake_cc @@ fun cc _ ->
        let prog = Util.compile ladder_src in
        let tmp = Filename.get_temp_dir_name () in
        Filename.set_temp_dir_name "/nonexistent/rp-native-tmp";
        let lad =
          Fun.protect
            ~finally:(fun () -> Filename.set_temp_dir_name tmp)
            (fun () -> Native.run_laddered ~cc:(Some cc) prog)
        in
        check_rung prog lad);
  ]

(* A private store primed by one native run of [ladder_src]: [f] gets
   the program, the store and the one binary object in it. *)
let with_primed_binary cc name f =
  let prog = Util.compile ladder_src in
  with_store name @@ fun cache ->
  let rung, _ = Native.run_laddered ~cache ~cc:(Some cc) prog in
  Util.check Alcotest.bool "primed natively" true (rung = `Native);
  match Util.native_bins (Rp_support.Cas.root cache) with
  | [ path ] -> f prog cache path
  | bins -> Alcotest.failf "expected one binary, found %d" (List.length bins)

(* CRC-valid store entries that cannot answer, each replanted over the
   primed binary: a file the kernel will not exec, the first half of the
   binary, and a script that runs but prints no trailer *)
let unrunnable_entry_test cc =
  Util.tc_slow "ladder: a CRC-valid unrunnable binary answers from the \
                interpreter"
    (fun () ->
      with_primed_binary cc "unrunnable" @@ fun prog cache path ->
      let raw = read_file path in
      let nl = String.index raw '\n' in
      let binary = String.sub raw (nl + 1) (String.length raw - nl - 1) in
      let magic, kind =
        match String.split_on_char ' ' (String.sub raw 0 nl) with
        | magic :: kind :: _ -> (magic, kind)
        | _ -> Alcotest.fail "malformed object header"
      in
      List.iter
        (fun payload ->
          Out_channel.with_open_bin path (fun oc ->
              Printf.fprintf oc "%s %s %s %d\n%s" magic kind
                Rp_support.Crc32.(to_hex (string payload))
                (String.length payload) payload);
          check_rung prog (Native.run_laddered ~cache ~cc:(Some cc) prog))
        [
          "not a program\n";
          String.sub binary 0 (String.length binary / 2);
          "#!/bin/sh\necho not-a-trailer\n";
        ])

(* a byte flipped under the stale CRC: the store quarantines the entry on
   read, and the miss recompiles and answers natively *)
let poisoned_entry_test cc =
  Util.tc_slow "ladder: a poisoned binary is quarantined and recompiled"
    (fun () ->
      with_primed_binary cc "poisoned" @@ fun prog cache path ->
      let b = Bytes.of_string (read_file path) in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xFF));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let quarantined () =
        (Rp_support.Cas.stats cache).Rp_support.Cas.quarantined
      in
      let before = quarantined () in
      let lad = Native.run_laddered ~cache ~cc:(Some cc) prog in
      Util.check Alcotest.int "quarantined" (before + 1) (quarantined ());
      Util.check Alcotest.bool "recompiled" false (snd lad).Native.cache_hit;
      check_rung ~rung:`Native prog lad)

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
    Util.tc "bench: --retries and --resume are unknown options" (fun () ->
        List.iter
          (fun args ->
            Util.check Alcotest.int (args ^ " exit code") 124
              (bench_exit ("--json " ^ args)))
          [ "--retries 0"; "--resume j.jsonl" ]);
    Util.tc "bench: --job-timeout with --via-daemon is a usage error"
      (fun () ->
        Util.check Alcotest.int "exit code" 2
          (bench_exit "--json --via-daemon /tmp/nope.sock --job-timeout 5"));
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
  let failure_path_tests =
    match cc with
    | None -> failure_path_tests
    | Some cc ->
      failure_path_tests @ [ unrunnable_entry_test cc; poisoned_entry_test cc ]
  in
  Alcotest.run "native"
    [
      ("mangle", mangle_tests);
      ("trailer", trailer_tests);
      ( "trailer-adversarial",
        [ QCheck_alcotest.to_alcotest trailer_adversarial_prop ] );
      ("equivalence", native_tests);
      ("binary-store", [ failed_leader_test ]);
      ("failure-path", failure_path_tests);
      ("bench-cli", bench_cli_tests);
    ]
