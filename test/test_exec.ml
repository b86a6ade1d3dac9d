(** Interpreter tests: arithmetic and pointer semantics, the memory model's
    error detection (bounds, use-after-free, undef), builtins, operation
    accounting, and the dynamic tag-set checker. *)

open Rp_driver
module I = Rp_exec.Interp
module V = Rp_exec.Value

(* Run without optimization so counts are predictable. *)
let raw =
  { Config.default with
    Config.analysis = Config.Anone; promote = false; optimize = false;
    regalloc = false }

let ret src =
  let r = Util.run ~config:raw src in
  r.I.ret

let semantics_tests =
  [
    Util.tc "integer arithmetic truncates toward zero" (fun () ->
        Util.check Alcotest.string "out" "-2\n-1\n2\n1\n"
          (Util.output ~config:raw
             "int main() { print_int(-7 / 3); print_int(-7 % 3); \
              print_int(7 / 3); print_int(7 % 3); return 0; }"));
    Util.tc "shifts, masks, xor" (fun () ->
        Util.check Alcotest.string "out" "40\n2\n6\n5\n"
          (Util.output ~config:raw
             "int main() { print_int(5 << 3); print_int(5 >> 1); \
              print_int(5 ^ 3); print_int(7 & 5); return 0; }"));
    Util.tc "comparisons produce 0/1" (fun () ->
        Util.check Alcotest.string "out" "1\n0\n1\n1\n"
          (Util.output ~config:raw
             "int main() { print_int(3 < 5); print_int(5 < 3); print_int(3 \
              != 5); print_int(3 == 3); return 0; }"));
    Util.tc "short-circuit evaluation skips the right operand" (fun () ->
        Util.check Alcotest.string "out" "0\n7\n"
          (Util.output ~config:raw
             "int g = 7; int zap() { g = 0; return 1; } int main() { \
              print_int(0 && zap()); print_int(g); return 0; }"));
    Util.tc "ternary chooses lazily" (fun () ->
        Util.check Alcotest.string "out" "5\n"
          (Util.output ~config:raw
             "int main() { int x = 1; print_int(x ? 5 : 1 / 0); return 0; }"));
    Util.tc "float conversions truncate" (fun () ->
        Util.check Alcotest.string "out" "3\n-3\n3.7\n"
          (Util.output ~config:raw
             "int main() { print_int((int)3.7); print_int((int)-3.7); \
              print_float(3.7); return 0; }"));
    Util.tc "pointer arithmetic is word scaled" (fun () ->
        Util.check Alcotest.string "out" "30\n"
          (Util.output ~config:raw
             "int a[5]; int main() { int *p = a; a[3] = 30; print_int(*(p + \
              3)); return 0; }"));
    Util.tc "2-D arrays index row-major" (fun () ->
        Util.check Alcotest.string "out" "42\n"
          (Util.output ~config:raw
             "int m[3][4]; int main() { m[2][1] = 42; int *flat = (int*)m; \
              print_int(flat[9]); return 0; }"));
    Util.tc "pointer difference divides by element size" (fun () ->
        Util.check Alcotest.string "out" "2\n"
          (Util.output ~config:raw
             "int m[4][8]; int main() { int (*p)(int); p = 0; int *a = \
              (int*)m; print_int(((int)(&m[2][0] - &m[0][0])) / 8); return \
              0; }"));
    Util.tc "pre/post increment" (fun () ->
        Util.check Alcotest.string "out" "5\n7\n7\n6\n"
          (Util.output ~config:raw
             "int main() { int x = 5; print_int(x++); x++; print_int(x); \
              print_int(x--); print_int(x); return 0; }"));
    Util.tc "do-while runs at least once" (fun () ->
        Util.check Alcotest.string "out" "1\n"
          (Util.output ~config:raw
             "int main() { int n = 0; do { n++; } while (0); print_int(n); \
              return 0; }"));
    Util.tc "recursion with locals keeps activations separate" (fun () ->
        Util.check Alcotest.string "out" "3628800\n"
          (Util.output ~config:raw
             "int fact(int n) { int here = n; if (n <= 1) return 1; return \
              here * fact(n - 1); } int main() { print_int(fact(10)); \
              return 0; }"));
    Util.tc "function pointers dispatch" (fun () ->
        Util.check Alcotest.string "out" "7\n12\n"
          (Util.output ~config:raw
             "int add(int a, int b) { return a + b; } int mul(int a, int b) \
              { return a * b; } int main() { int (*f)(int, int) = add; \
              print_int(f(3, 4)); f = mul; print_int(f(3, 4)); return 0; }"));
    Util.tc "global initializers" (fun () ->
        Util.check Alcotest.string "out" "5\n0\n2\n0\n"
          (Util.output ~config:raw
             "int x = 5; int y; int a[3] = {1, 2}; int main() { \
              print_int(x); print_int(y); print_int(a[1]); print_int(a[2]); \
              return 0; }"));
    Util.tc "malloc gives zeroed memory; free releases" (fun () ->
        Util.check Alcotest.string "out" "0\n9\n"
          (Util.output ~config:raw
             "int main() { int *p = malloc(3); print_int(p[2]); p[1] = 9; \
              print_int(p[1]); free(p); return 0; }"));
    Util.tc "main's return value is reported" (fun () ->
        match ret "int main() { return 41 + 1; }" with
        | V.Vint 42 -> ()
        | v -> Alcotest.failf "got %s" (Fmt.str "%a" V.pp v));
    Util.tc "rand is deterministic per seed" (fun () ->
        let src =
          "int main() { srand(7); print_int(rand()); print_int(rand()); \
           return 0; }"
        in
        Util.check Alcotest.string "same stream" (Util.output ~config:raw src)
          (Util.output ~config:raw src));
    Util.tc "math builtins" (fun () ->
        Util.check Alcotest.string "out" "3\n8\n1\n"
          (Util.output ~config:raw
             "int main() { print_int((int)sqrt(9.0)); print_int((int)pow(2.0, \
              3.0)); print_int((int)fabs(-1.2)); return 0; }"));
  ]

(* C operator precedence and associativity, checked semantically: each pair
   is (expression, expected value). *)
let precedence_cases =
  [
    ("1 + 2 * 3", 7);
    ("(1 + 2) * 3", 9);
    ("10 - 4 - 3", 3);  (* left associative *)
    ("2 * 3 % 4", 2);
    ("7 % 4 * 2", 6);
    ("1 << 2 + 1", 8);  (* shift binds looser than + *)
    ("16 >> 1 + 1", 4);
    ("1 < 2 == 1", 1);  (* relational before equality *)
    ("5 & 3 ^ 1 | 8", 8 lor (5 land 3 lxor 1));
    ("1 | 2 == 2", 1 lor (2 == 2 |> Bool.to_int));
    ("-2 * 3", -6);
    ("- -5", 5);
    ("!0 + 1", 2);  (* unary binds tighter than + *)
    ("~0 & 7", 7);
    ("1 ? 2 : 0 ? 3 : 4", 2);  (* ternary right associative *)
    ("0 ? 2 : 0 ? 3 : 4", 4);
    ("2 + 3 == 5 && 1", 1);
    ("1 && 0 || 1", 1);  (* && before || *)
    ("6 / 2 / 3", 1);
    ("100 >> 2 << 1", 50);
  ]

let precedence_tests =
  [
    Util.tc "operator precedence and associativity battery" (fun () ->
        let body =
          String.concat "\n"
            (List.map
               (fun (e, _) -> Printf.sprintf "  print_int(%s);" e)
               precedence_cases)
        in
        let src = "int main() {\n" ^ body ^ "\n  return 0;\n}" in
        let expected =
          String.concat ""
            (List.map
               (fun (_, v) -> string_of_int v ^ "\n")
               precedence_cases)
        in
        Util.check Alcotest.string "all values" expected
          (Util.output ~config:raw src);
        (* and the optimizer must agree with the unoptimized reference *)
        Util.check Alcotest.string "optimized agrees" expected
          (Util.output src));
  ]

let error_tests =
  [
    Util.expect_runtime_error ~config:raw "out-of-bounds store"
      "int a[3]; int main() { a[5] = 1; return 0; }";
    Util.expect_runtime_error ~config:raw "negative index"
      "int a[3]; int main() { int i = -1; a[i] = 1; return 0; }";
    Util.expect_runtime_error ~config:raw "cross-object overflow"
      "int a[2]; int b[2]; int main() { int *p = a; return p[3]; }";
    Util.expect_runtime_error ~config:raw "use after free"
      "int main() { int *p = malloc(2); free(p); return p[0]; }";
    Util.expect_runtime_error ~config:raw "dangling local escapes"
      "int *leak() { int x = 3; return &x; } int main() { int *p = leak(); \
       return *p; }";
    Util.expect_runtime_error ~config:raw "null dereference"
      "int main() { int *p = 0; return *p; }";
    Util.expect_runtime_error ~config:raw "undefined local read"
      "int main() { int x; return x + 1; }";
    Util.expect_runtime_error ~config:raw "division by zero"
      "int main() { int z = 0; return 3 / z; }";
    Util.expect_runtime_error ~config:raw "remainder by zero"
      "int main() { int z = 0; return 3 % z; }";
    Util.tc "stack overflow detected" (fun () ->
        match
          Util.run ~config:raw
            "int f(int n) { return f(n + 1); } int main() { return f(0); }"
        with
        | exception I.Resource_limit msg ->
          Util.check Alcotest.bool "mentions overflow" true
            (String.length msg >= 4)
        | _ -> Alcotest.fail "expected a stack-overflow resource limit");
    Util.tc "fuel exhaustion reported" (fun () ->
        match
          Util.run ~config:raw ~fuel:1000
            "int main() { while (1) { } return 0; }"
        with
        | exception I.Resource_limit msg ->
          Util.check Alcotest.bool "mentions fuel" true
            (String.length msg >= 4)
        | _ -> Alcotest.fail "expected a fuel resource limit");
    Util.expect_runtime_error ~config:raw "pointer comparison across objects"
      "int a[2]; int b[2]; int main() { int *p = a; int *q = b; return p < \
       q; }";
  ]

(* The exact message of every memory trap, under the default config *)
let trap_message_tests =
  List.map
    (fun (name, src, msg) ->
      Util.tc ("trap message: " ^ name) (fun () ->
          match Util.run src with
          | exception V.Runtime_error m ->
            Util.check Alcotest.string "message" msg m
          | _ -> Alcotest.fail "expected a runtime error"))
    Util.memory_traps

let memory_tests =
  let open Rp_ir in
  let tags = Tag.Table.create () in
  let tag name storage =
    Tag.Table.fresh tags ~name ~storage ~size:2 ~is_scalar:false ()
  in
  let message f =
    match f () with
    | exception V.Runtime_error m -> m
    | _ -> Alcotest.fail "expected a runtime error"
  in
  let module M = Rp_exec.Memory in
  [
    Util.tc "memory: bases are dense from 1 and never reused" (fun () ->
        let m = M.create () in
        let t = tag "h" (Tag.Heap 0) in
        let alloc () = M.alloc m ~tag:t ~size:1 ~fill:V.Vundef in
        let bases = List.init 3 (fun _ -> alloc ()) in
        Util.check Alcotest.(list int) "dense" [ 1; 2; 3 ] bases;
        M.free m 2;
        Util.check Alcotest.int "after a free" 4 (alloc ()));
    Util.tc "memory: invalid base, then tag set, then dead, then bounds"
      (fun () ->
        let m = M.create () in
        let b = M.alloc m ~tag:(tag "x" Tag.Global) ~size:2 ~fill:(V.Vint 0) in
        let other = Tagset.singleton (tag "y" Tag.Global) in
        Util.check Alcotest.string "invalid base first"
          "access to invalid base 9"
          (message (fun () -> M.load m other 9 5));
        Util.check Alcotest.string "bounds on a live object"
          "out-of-bounds access to 'x' (offset 2, size 2)"
          (message (fun () -> M.load m Tagset.univ b 2));
        M.release m b;
        (* a dead base keeps its tag: the tag set is checked first *)
        Util.check Alcotest.string "tag set before liveness"
          "tag-set violation in Store: object 'x' not in static tag set [y]"
          (message (fun () -> M.store m other b 5 V.Vundef));
        Util.check Alcotest.string "liveness before bounds"
          "access to dead object 'x'"
          (message (fun () -> M.load m Tagset.univ b 5)));
    Util.tc "memory: free checks liveness before storage" (fun () ->
        let m = M.create () in
        let g = M.alloc m ~tag:(tag "g" Tag.Global) ~size:1 ~fill:V.Vundef in
        Util.check Alcotest.string "non-heap" "free of a non-heap object 'g'"
          (message (fun () -> M.free m g));
        M.release m g;
        Util.check Alcotest.string "dead first" "double free of 'g'"
          (message (fun () -> M.free m g)));
    Util.tc "object table outgrows its initial size" (fun () ->
        Util.check Alcotest.string "output" Util.growth_output
          (Util.output Util.growth_src));
  ]

let counting_tests =
  [
    Util.tc "operation counting is exact on straight-line code" (fun () ->
        (* entry: iLoad 3; sStore g; sLoad g; ret -> 4 ops, 1 load, 1 store *)
        let p = Util.front "int g; int main() { g = 3; return g; }" in
        let r = I.run p in
        Util.check Alcotest.int "loads" 1 r.I.total.I.loads;
        Util.check Alcotest.int "stores" 1 r.I.total.I.stores);
    Util.tc "terminators count as operations" (fun () ->
        let p = Util.front "int main() { return 0; }" in
        let r = I.run p in
        (* iLoad + ret = 2 ops *)
        Util.check Alcotest.int "ops" 2 r.I.total.I.ops);
    Util.tc "per-function counts attribute correctly" (fun () ->
        let p =
          Util.front
            "int g; void touch() { g = g + 1; } int main() { touch(); \
             touch(); return g; }"
        in
        let r = I.run p in
        let touch = List.assoc "touch" r.I.per_func in
        Util.check Alcotest.int "touch stores" 2 touch.I.stores;
        Util.check Alcotest.int "touch loads" 2 touch.I.loads;
        let main = List.assoc "main" r.I.per_func in
        Util.check Alcotest.int "main loads" 1 main.I.loads);
    Util.tc "iLoad and address materialization are not memory traffic"
      (fun () ->
        let p = Util.front "int a[4]; int main() { a[2] = 7; return 0; }" in
        let r = I.run p in
        Util.check Alcotest.int "loads" 0 r.I.total.I.loads;
        Util.check Alcotest.int "stores" 1 r.I.total.I.stores);
    Util.tc "checksum depends on the output" (fun () ->
        let r1 = Util.run ~config:raw "int main() { print_int(1); return 0; }" in
        let r2 = Util.run ~config:raw "int main() { print_int(2); return 0; }" in
        Util.check Alcotest.bool "differ" true
          (r1.I.checksum <> r2.I.checksum));
    (* a segment is charged whole only when no operation in it can run
       out of fuel or land on a poll: these pin the operation each fires on *)
    Util.tc "fuel runs out on the exact operation around a trap" (fun () ->
        let prog = Util.compile Util.fuel_trap_src in
        Util.fuel_sweep (fun ~fuel -> ignore (I.run ~fuel prog)));
    Util.tc "should_stop is polled once per 4096 operations" (fun () ->
        let prog =
          Util.compile
            "int g; int step(int x) { g = g + x; return g % 7; }\n\
             int main() { int i; int s; s = 0;\n\
             for (i = 0; i < 3000; i++) s = s + step(i);\n\
             print_int(s); return 0; }"
        in
        let polls = ref 0 in
        let r = I.run ~should_stop:(fun () -> incr polls; false) prog in
        let expected = r.I.total.I.ops / 4096 in
        Util.check Alcotest.bool "several polls" true (expected >= 5);
        Util.check Alcotest.int "polls" expected !polls;
        for k = 1 to expected do
          let n = ref 0 in
          match I.run ~should_stop:(fun () -> incr n; !n = k) prog with
          | _ -> Alcotest.failf "stop on poll %d: the run completed" k
          | exception I.Resource_limit m ->
            Util.check Alcotest.string (Printf.sprintf "poll %d" k)
              (Printf.sprintf "external stop after %d operations" (4096 * k))
              m
        done);
  ]

let tagcheck_tests =
  [
    Util.tc "tag sets dynamically verified on every benchmark program"
      (fun () ->
        (* check_tags:true is the default; compile each miniature under the
           pointer analysis and let every Load/Store verify its tag set *)
        List.iter
          (fun (pr : Rp_suite.Programs.program) ->
            let cfg = { Config.default with Config.analysis = Config.Apointer } in
            ignore (Util.run ~config:cfg pr.Rp_suite.Programs.source))
          [ Rp_suite.Programs.find "fft"; Rp_suite.Programs.find "bc";
            Rp_suite.Programs.find "gzip(dec)" ]);
    Util.tc "a wrong tag set is caught at runtime" (fun () ->
        (* hand-build: store through a pointer to x with tag set {y} *)
        let open Rp_ir in
        let prog = Program.create () in
        let tx =
          Tag.Table.fresh prog.Program.tags ~name:"x" ~storage:Tag.Global ()
        in
        let ty_ =
          Tag.Table.fresh prog.Program.tags ~name:"y" ~storage:Tag.Global ()
        in
        Program.add_global prog tx (Program.Init_zero (Instr.Cint 0));
        Program.add_global prog ty_ (Program.Init_zero (Instr.Cint 0));
        let f = Func.create ~name:"main" ~nparams:0 in
        f.Func.nreg <- 2;
        Func.add_block f
          (Block.create
             ~instrs:
               [ Instr.Loada (0, tx); Instr.Loadi (1, Instr.Cint 5);
                 Instr.Storeg (0, 1, Tagset.singleton ty_) ]
             ~term:(Instr.Ret None) "entry");
        Program.add_func prog f;
        match I.run prog with
        | exception V.Runtime_error msg ->
          Util.check Alcotest.bool "mentions tag" true
            (String.length msg > 0)
        | _ -> Alcotest.fail "expected tag-set violation");
  ]

let () =
  Alcotest.run "exec"
    [
      ("semantics", semantics_tests);
      ("precedence", precedence_tests);
      ("errors", error_tests);
      ("traps", trap_message_tests);
      ("memory", memory_tests);
      ("counting", counting_tests);
      ("tagcheck", tagcheck_tests);
    ]
