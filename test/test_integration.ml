(** Whole-pipeline integration tests: the benchmark miniatures (the 14
    Figure-4 programs plus the pointer tier) under the full six-cell
    configuration grid, checking (a) semantic preservation everywhere
    and (b) the paper's qualitative results (who improves, who degrades,
    where the analyses differ). *)

open Rp_driver
module I = Rp_exec.Interp

let metric' src cfg =
  let (_, _, r) = Pipeline.compile_and_run ~config:cfg src in
  (r.I.total.I.ops, r.I.total.I.loads, r.I.total.I.stores, r.I.checksum)

let metric (p : Rp_suite.Programs.program) cfg =
  metric' p.Rp_suite.Programs.source cfg

let grid (p : Rp_suite.Programs.program) =
  List.map (fun (n, cfg) -> (n, metric p cfg)) Config.paper_grid

let differential_tests =
  List.map
    (fun (p : Rp_suite.Programs.program) ->
      Util.tc_slow ("all configurations agree: " ^ p.Rp_suite.Programs.name)
        (fun () ->
          let results = grid p in
          let checks = List.map (fun (_, (_, _, _, c)) -> c) results in
          match checks with
          | first :: rest ->
            List.iter
              (fun c -> Util.check Alcotest.int "checksum" first c)
              rest
          | [] -> assert false))
    Rp_suite.Programs.all

let pick name = Rp_suite.Programs.find name
let without = { Config.default with Config.promote = false }
let with_ = Config.default
let pointer_with =
  { Config.default with Config.analysis = Config.Apointer }
let pointer_without =
  { Config.default with Config.analysis = Config.Apointer; promote = false }

let shape_tests =
  [
    Util.tc_slow "tsp/sim/allroots: nothing to promote" (fun () ->
        List.iter
          (fun name ->
            let p = pick name in
            let (_, l0, s0, _) = metric p without in
            let (_, l1, s1, _) = metric p with_ in
            Util.check Alcotest.int (name ^ " loads unchanged") l0 l1;
            Util.check Alcotest.int (name ^ " stores unchanged") s0 s1)
          [ "tsp"; "sim"; "allroots" ]);
    Util.tc_slow "mlink: the headline store win" (fun () ->
        let p = pick "mlink" in
        let (_, _, s0, _) = metric p without in
        let (_, _, s1, _) = metric p with_ in
        let removed = 100. *. float_of_int (s0 - s1) /. float_of_int s0 in
        Util.check Alcotest.bool "most stores removed" true (removed > 40.));
    Util.tc_slow "fft: promotion requires points-to precision" (fun () ->
        let p = pick "fft" in
        let (_, _, s_mr, _) = metric p with_ in
        let (_, _, s_mr0, _) = metric p without in
        let (_, _, s_pt, _) = metric p pointer_with in
        let (_, _, s_pt0, _) = metric p pointer_without in
        Util.check Alcotest.int "modref finds nothing" 0 (s_mr0 - s_mr);
        Util.check Alcotest.bool "points-to unlocks stores" true
          (s_pt0 - s_pt > 1000));
    Util.tc_slow "bc: pointer analysis multiplies the win (fn pointers)"
      (fun () ->
        let p = pick "bc" in
        let (_, _, s_mr0, _) = metric p without in
        let (_, _, s_mr, _) = metric p with_ in
        let (_, _, s_pt, _) = metric p pointer_with in
        let mr_win = s_mr0 - s_mr in
        let pt_win = s_mr0 - s_pt in
        Util.check Alcotest.bool "modref already wins" true (mr_win > 0);
        Util.check Alcotest.bool "pointer wins at least 2x more" true
          (pt_win > 2 * mr_win));
    Util.tc_slow "go: the big load win" (fun () ->
        let p = pick "go" in
        let (_, l0, _, _) = metric p without in
        let (_, l1, _, _) = metric p with_ in
        Util.check Alcotest.bool "many loads removed" true
          (100. *. float_of_int (l0 - l1) /. float_of_int l0 > 10.));
    Util.tc_slow "dhrystone: the once-loop is a wash" (fun () ->
        let p = pick "dhrystone" in
        let (o0, l0, s0, _) = metric p without in
        let (o1, l1, s1, _) = metric p with_ in
        Util.check Alcotest.int "ops" o0 o1;
        Util.check Alcotest.int "loads" l0 l1;
        Util.check Alcotest.int "stores" s0 s1);
    Util.tc_slow "bison: error-path promotion degrades slightly" (fun () ->
        let p = pick "bison" in
        let (o0, _, s0, _) = metric p without in
        let (o1, _, s1, _) = metric p with_ in
        Util.check Alcotest.bool "ops slightly worse" true
          (o1 > o0 && o1 - o0 < o0 / 50);
        Util.check Alcotest.bool "stores slightly worse" true (s1 > s0));
    Util.tc_slow "gzip(dec): near-zero net effect, store-side degradation"
      (fun () ->
        let p = pick "gzip(dec)" in
        let (o0, _, s0, _) = metric p without in
        let (o1, _, s1, _) = metric p with_ in
        Util.check Alcotest.bool "ops within 0.1%" true
          (abs (o1 - o0) * 1000 < o0);
        Util.check Alcotest.bool "stores degrade" true (s1 > s0));
    Util.tc_slow "water: promotion-induced spills cost more than they save"
      (fun () ->
        let p = pick "water" in
        let (o0, _, _, _) = metric p without in
        let (o1, _, _, _) = metric p with_ in
        Util.check Alcotest.bool "net loss at default k" true (o1 > o0);
        (* but with a big register file promotion wins *)
        let big = { Config.default with Config.k = 48 } in
        let big0 = { big with Config.promote = false } in
        let (b0, _, _, _) = metric p big0 in
        let (b1, _, _, _) = metric p big in
        Util.check Alcotest.bool "net win at k=48" true (b1 < b0));
    Util.tc_slow "insensitivity: modref == pointer on most programs"
      (fun () ->
        (* the paper's broad finding; fft and bc are the exceptions *)
        List.iter
          (fun name ->
            let p = pick name in
            let (_, l_mr, s_mr, _) = metric p with_ in
            let (_, l_pt, s_pt, _) = metric p pointer_with in
            Util.check Alcotest.int (name ^ " loads equal") l_mr l_pt;
            Util.check Alcotest.int (name ^ " stores equal") s_mr s_pt)
          [ "tsp"; "mlink"; "clean"; "sim"; "dhrystone"; "water"; "indent";
            "allroots"; "go"; "bison"; "gzip(enc)"; "gzip(dec)" ]);
    Util.tc_slow "section 3.3 fires only on fft and the pointer tier"
      (fun () ->
        let both =
          { Config.default with
            Config.analysis = Config.Apointer; ptr_promote = true }
        in
        (* fft is the paper's sole §3.3 success; ptrsum and stride are
           this reproduction's pointer-walk additions built to win.  On
           every other program — including ptrchase, the walk whose base
           is redefined in-loop — pointer promotion must change nothing. *)
        let winners = [ "fft"; "ptrsum"; "stride" ] in
        List.iter
          (fun (p : Rp_suite.Programs.program) ->
            let (_, l_s, s_s, c1) = metric p pointer_with in
            let (_, l_b, s_b, c2) = metric p both in
            Util.check Alcotest.int (p.Rp_suite.Programs.name ^ " checksum") c1 c2;
            if List.mem p.Rp_suite.Programs.name winners then
              Util.check Alcotest.bool
                (p.Rp_suite.Programs.name ^ " benefits") true
                (l_b < l_s && s_b < s_s)
            else begin
              Util.check Alcotest.int (p.Rp_suite.Programs.name ^ " loads") l_s l_b;
              Util.check Alcotest.int (p.Rp_suite.Programs.name ^ " stores") s_s s_b
            end)
          Rp_suite.Programs.all);
  ]

(* Smaller end-to-end programs exercising cross-feature combinations. *)
let feature_tests =
  [
    Util.tc "pointer into promoted-adjacent memory" (fun () ->
        ignore
          (Util.differential
             "int g; int h; int main() { int *p = &h; int i; for (i = 0; i \
              < 50; i++) { g += i; *p = g; } print_int(g + h); return 0; }"));
    Util.tc "promotion across function-pointer dispatch" (fun () ->
        ignore
          (Util.differential
             "int g; int bump(int x) { return x + 1; } int dbl(int x) { \
              return x * 2; } int main() { int (*f)(int) = bump; int i; \
              for (i = 0; i < 30; i++) { g = f(g); if (i == 10) f = dbl; } \
              print_int(g); return 0; }"));
    Util.tc "heap-carried state across calls" (fun () ->
        ignore
          (Util.differential
             "int *mk() { int *p = malloc(2); p[0] = 1; p[1] = 2; return p; \
              } int use(int *p) { return p[0] + p[1]; } int main() { int *a \
              = mk(); int *b = mk(); b[0] = 10; print_int(use(a) + use(b)); \
              free(a); free(b); return 0; }"));
    Util.tc "mutual recursion with globals" (fun () ->
        ignore
          (Util.differential
             "int g; int odd(int n); int even(int n) { if (n == 0) return \
              1; g++; return odd(n - 1); } int odd(int n) { if (n == 0) \
              return 0; g++; return even(n - 1); } int main() { \
              print_int(even(10)); print_int(g); return 0; }"));
    Util.tc "matrix multiply end to end" (fun () ->
        ignore
          (Util.differential
             "float A[8][8]; float B[8][8]; float C[8][8]; int main() { int \
              i; int j; int k; for (i = 0; i < 8; i++) for (j = 0; j < 8; \
              j++) { A[i][j] = 0.5 * (i + j); B[i][j] = 0.25 * (i - j); } \
              for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) { float s = \
              0.0; for (k = 0; k < 8; k++) s += A[i][k] * B[k][j]; C[i][j] \
              = s; } float t = 0.0; for (i = 0; i < 8; i++) t += C[i][i]; \
              print_float(t); return 0; }"));
    Util.tc "string-less text processing with char codes" (fun () ->
        ignore
          (Util.differential
             "int buf[64]; int main() { int i; for (i = 0; i < 64; i++) \
              buf[i] = 'a' + i % 26; int caps = 0; for (i = 0; i < 64; i++) \
              { if (buf[i] >= 'a' && buf[i] <= 'z') { buf[i] = buf[i] - 32; \
              caps++; } } print_int(caps); print_char(buf[0]); \
              print_char('\\n'); return 0; }"));
    Util.tc "struct-based linked traversal end to end" (fun () ->
        ignore
          (Util.differential
             "struct Node { int v; struct Node *next; }; struct Node pool[8]; \
              int main() { int i; for (i = 0; i < 8; i++) { pool[i].v = i * \
              i; if (i < 7) pool[i].next = &pool[i + 1]; else pool[i].next = \
              0; } int sum = 0; struct Node *p = &pool[0]; while (p != 0) { \
              sum += p->v; p = p->next; } print_int(sum); return 0; }"));
    Util.tc "struct field updates through pointers across calls" (fun () ->
        ignore
          (Util.differential
             "struct Acc { int n; float total; }; struct Acc acc; void \
              add(struct Acc *a, float x) { a->n = a->n + 1; a->total = \
              a->total + x; } int main() { int i; for (i = 0; i < 100; i++) \
              add(&acc, 0.5 * i); print_int(acc.n); print_float(acc.total); \
              return 0; }"));
    Util.tc "section 3.3 promotes a single-field struct loop" (fun () ->
        let src =
          "struct Cell { int count; }; struct Cell cells[4]; int main() { \
           int i; int j; for (i = 0; i < 4; i++) { for (j = 0; j < 50; j++) \
           { cells[i].count += j; } } print_int(cells[2].count); return 0; }"
        in
        let scalar = { Config.default with Config.analysis = Config.Apointer } in
        let both = { scalar with Config.ptr_promote = true } in
        let a = metric' src scalar in
        let b = metric' src both in
        let (_, l_a, s_a, _) = a and (_, l_b, s_b, _) = b in
        Util.check Alcotest.bool "loads drop" true (l_b < l_a);
        Util.check Alcotest.bool "stores drop" true (s_b < s_a);
        ignore (Util.differential src));
    Util.tc "always_store preserves semantics on read-only promotions"
      (fun () ->
        ignore
          (Util.differential
             ~configs:
               [
                 ("normal", Config.default);
                 ("always",
                  { Config.default with Config.always_store = true });
               ]
             "int g; int main() { g = 21; int s = 0; int i; for (i = 0; i < \
              40; i++) s += g; print_int(s); return 0; }"));
  ]

(* The rpcc command-line driver, exercised end to end. *)
let cli_tests =
  let rpcc args file =
    let tmp_out = Filename.temp_file "rpcc_out" ".txt" in
    let cmd =
      Printf.sprintf "../bin/rpcc.exe %s %s > %s 2>&1" args
        (Filename.quote file) (Filename.quote tmp_out)
    in
    let status = Sys.command cmd in
    let ic = open_in_bin tmp_out in
    let out = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove tmp_out;
    (status, out)
  in
  let with_src src f =
    let tmp = Filename.temp_file "rpcc_test" ".c" in
    let oc = open_out tmp in
    output_string oc src;
    close_out oc;
    Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () -> f tmp)
  in
  let demo =
    "int total; int main() { int i; for (i = 0; i < 100; i++) total += i; \
     print_int(total); return 0; }"
  in
  [
    Util.tc "rpcc run executes and reports counts" (fun () ->
        with_src demo (fun file ->
            let (st, out) = rpcc "run" file in
            Util.check Alcotest.int "exit 0" 0 st;
            Util.check Alcotest.bool "program output present" true
              (String.length out > 0
              && String.sub out 0 5 = "4950\n");
            Util.check Alcotest.bool "counts line present" true
              (let re = "; ops=" in
               let rec find i =
                 i + String.length re <= String.length out
                 && (String.sub out i (String.length re) = re || find (i + 1))
               in
               find 0)));
    Util.tc "rpcc dump prints IL" (fun () ->
        with_src demo (fun file ->
            let (st, out) = rpcc "dump" file in
            Util.check Alcotest.int "exit 0" 0 st;
            Util.check Alcotest.bool "mentions main" true
              (let re = "function main" in
               let rec find i =
                 i + String.length re <= String.length out
                 && (String.sub out i (String.length re) = re || find (i + 1))
               in
               find 0)));
    Util.tc "rpcc table prints each of the six cells as rpcc run counts it"
      (fun () ->
        (* §3.3 fires on this walk under pointer analysis, so pointer/ptr
           differs from pointer/with *)
        let walk =
          "int A[16]; int B[16][8]; int main() { int i; int j; for (i = 0; \
           i < 16; i++) { A[i] = i; for (j = 0; j < 8; j++) B[i][j] = i * 5 \
           + j; } int *pb = &A[0]; for (i = 0; i < 16; i++) { for (j = 0; j \
           < 8; j++) { *pb = *pb + B[i][j]; } pb = pb + 1; } int s = 0; for \
           (i = 0; i < 16; i++) s += A[i]; print_int(s); return 0; }"
        in
        let words line =
          List.filter (( <> ) "") (String.split_on_char ' ' line)
        in
        with_src walk (fun file ->
            let (st, table) = rpcc "table" file in
            Util.check Alcotest.int "exit 0" 0 st;
            Util.check Alcotest.bool "has rows" true
              (List.length (String.split_on_char '\n' table) > 6);
            let run_ops flags =
              let (_, out) = rpcc ("run -q " ^ flags) file in
              List.find_map
                (fun line ->
                  match words line with
                  | ";" :: ops :: _ when String.starts_with ~prefix:"ops=" ops
                    ->
                    Some (String.sub ops 4 (String.length ops - 4))
                  | _ -> None)
                (String.split_on_char '\n' out)
            in
            List.iter
              (fun analysis ->
                match
                  List.find_map
                    (fun line ->
                      match words line with
                      | [ "ops"; a; without; with_; _; _; ptr ]
                        when a = analysis ->
                        Some
                          [ ("without", without); ("with", with_);
                            ("ptr", ptr) ]
                      | _ -> None)
                    (String.split_on_char '\n' table)
                with
                | None ->
                  Alcotest.failf "no ops row with six cells for %s:\n%s"
                    analysis table
                | Some cells ->
                  List.iter
                    (fun (cell, ops) ->
                      let flags =
                        match cell with
                        | "without" -> "--promote false"
                        | "with" -> ""
                        | _ -> "--ptr-promote"
                      in
                      Util.check
                        Alcotest.(option string)
                        (analysis ^ "/" ^ cell) (Some ops)
                        (run_ops
                           (Printf.sprintf "--analysis %s %s" analysis flags)))
                    cells)
              [ "modref"; "pointer" ]));
    Util.tc "rpcc reports front-end errors with exit 2" (fun () ->
        with_src "int main() { return oops; }" (fun file ->
            let (st, _) = rpcc "run" file in
            Util.check Alcotest.int "exit 2" 2 st));
    Util.tc "rpcc dump --format il round trips through run-il" (fun () ->
        with_src demo (fun file ->
            let (st, il) = rpcc "dump --format il" file in
            Util.check Alcotest.int "dump exit 0" 0 st;
            let tmp_il = Filename.temp_file "rpcc_test" ".il" in
            let oc = open_out tmp_il in
            output_string oc il;
            close_out oc;
            Fun.protect
              ~finally:(fun () -> Sys.remove tmp_il)
              (fun () ->
                let (st2, out) = rpcc "run-il" tmp_il in
                Util.check Alcotest.int "run-il exit 0" 0 st2;
                Util.check Alcotest.bool "same program output" true
                  (String.length out >= 5 && String.sub out 0 5 = "4950\n"))));
    Util.tc "run-il rejects a parameter outside the register file" (fun () ->
        with_src
          "int g; int f(int x) { return x + 1; }\n\
           int main() { g = f(41); print_int(g); return 0; }"
          (fun file ->
            let (_, il) = rpcc "dump --format il" file in
            let param = "func f params=1 " in
            let n = String.length param in
            let bad =
              String.split_on_char '\n' il
              |> List.map (fun l ->
                     if String.starts_with ~prefix:param l then
                       "func f params=70 " ^ String.sub l n (String.length l - n)
                     else l)
              |> String.concat "\n"
            in
            Util.check Alcotest.bool "the edit applied" true (bad <> il);
            with_src bad (fun bad_il ->
                let (st, out) = rpcc "run-il" bad_il in
                Util.check Alcotest.int "exit 2" 2 st;
                Util.check Alcotest.bool "a validation error" true
                  (String.starts_with ~prefix:"error: invalid IL after parse:"
                     out))));
    Util.tc "rpcc reports runtime traps with exit 1" (fun () ->
        with_src "int a[2]; int main() { return a[9]; }" (fun file ->
            let (st, _) = rpcc "run -q" file in
            Util.check Alcotest.int "exit 1" 1 st));
    Util.tc "rpcc reduce --config native replays a native finding"
      (fun () ->
        (* a compiler that answers --version and fails every compile:
           each gen-fuzz --native trial finds a native crash, and the
           replay line it prints must reproduce it *)
        let dir = Filename.temp_file "rp-replay" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o700;
        Fun.protect
          ~finally:(fun () ->
            ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
          (fun () ->
            let file name = Filename.concat dir name in
            Out_channel.with_open_bin (file "cc") (fun oc ->
                output_string oc
                  "#!/bin/sh\n\
                   case \"$1\" in --version) echo fake-cc; exit 0;; esac\n\
                   exit 1\n");
            Unix.chmod (file "cc") 0o700;
            let exe = Filename.concat (Sys.getcwd ()) "../bin/rpcc.exe" in
            let rpcc args =
              let st =
                Sys.command
                  (Printf.sprintf "cd %s && PATH=%s:$PATH %s %s > out 2>&1"
                     (Filename.quote dir) (Filename.quote dir)
                     (Filename.quote exe) args)
              in
              (st, In_channel.with_open_bin (file "out") In_channel.input_all)
            in
            let st, out =
              rpcc "gen-fuzz --native --trials 1 --seed 3 --jobs 1"
            in
            Util.check Alcotest.int "gen-fuzz exit" 1 st;
            let prefix = "  replay: rpcc " in
            match
              List.find_opt
                (fun l ->
                  String.starts_with ~prefix l
                  && Util.contains ~sub:"--config native" l)
                (String.split_on_char '\n' out)
            with
            | None -> Alcotest.failf "no native replay line in:\n%s" out
            | Some line ->
              let n = String.length prefix in
              let replay = String.sub line n (String.length line - n) in
              let _, out = rpcc (replay ^ " --budget 1") in
              Util.check Alcotest.bool out true
                (Util.contains ~sub:"reducing for [native] crash" out)));
    Util.tc "rpcc reports fuel exhaustion with exit 3" (fun () ->
        with_src "int main() { while (1) {} return 0; }" (fun file ->
            let (st, _) = rpcc "run -q --fuel 10000" file in
            Util.check Alcotest.int "exit 3" 3 st));
    Util.tc "a path that cannot be opened or created exits 2, never 125"
      (fun () ->
        let dir = Filename.temp_file "rp-paths" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o700;
        Fun.protect
          ~finally:(fun () ->
            ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
        @@ fun () ->
        let file name = Filename.concat dir name in
        Sys.mkdir (file "d") 0o700;
        Out_channel.with_open_bin (file "f") ignore;
        let exe name = Filename.quote (Filename.concat (Sys.getcwd ()) name) in
        let rpcc = exe "../bin/rpcc.exe" and bench = exe "../bench/main.exe" in
        List.iter
          (fun (cmd, code, stream, sub) ->
            let st =
              Sys.command
                (Printf.sprintf "cd %s && %s > out 2> err"
                   (Filename.quote dir) cmd)
            in
            let text =
              In_channel.with_open_bin (file stream) In_channel.input_all
            in
            Util.check Alcotest.int (cmd ^ ": exit") code st;
            Util.check Alcotest.bool (cmd ^ ": " ^ text) true
              (Util.contains ~sub text))
          [
            ( rpcc ^ " gen-fuzz --trials 1 --journal missing/j.jsonl", 2, "err",
              "usage: --journal missing/j.jsonl: No such file or directory" );
            ( rpcc ^ " fuzz --trials 1 --journal d", 2, "err",
              "usage: --journal d: " );
            ( "timeout 30 " ^ rpcc ^ " serve --socket s.sock --state-dir f/x",
              2, "err", "error: mkdir f/x: Not a directory" );
            (* --out-dir is created with every missing level *)
            ( rpcc
              ^ " gen-fuzz --trials 3 --seed 5 --inject drop_store --out-dir \
                 a/b/c",
              1, "out", "gen-fuzz: seed=5 trials=3 " );
            ( bench ^ " --json --journal missing/j.jsonl", 2, "err",
              "usage: --journal missing/j.jsonl: No such file or directory" );
          ]);
    Util.tc "an out-of-range number is a usage error before anything runs"
      (fun () ->
        let dir = Filename.temp_file "rp-ranges" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o700;
        Fun.protect
          ~finally:(fun () ->
            ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
        @@ fun () ->
        let file name = Filename.concat dir name in
        let read name =
          In_channel.with_open_bin (file name) In_channel.input_all
        in
        let exe = Filename.concat (Sys.getcwd ()) "../bin/rpcc.exe" in
        let rpcc args =
          Sys.command
            (Printf.sprintf "cd %s && %s %s > out 2> err" (Filename.quote dir)
               (Filename.quote exe) args)
        in
        Out_channel.with_open_bin (file "demo.c") (fun oc ->
            output_string oc demo);
        Util.check Alcotest.int "dump exit" 0 (rpcc "dump --format il demo.c");
        Sys.rename (file "out") (file "demo.il");
        List.iter
          (fun (args, usage) ->
            Util.check Alcotest.int (args ^ ": exit") 2 (rpcc args);
            Util.check Alcotest.string (args ^ ": stderr")
              ("usage: " ^ usage ^ "\n") (read "err");
            Util.check Alcotest.string (args ^ ": nothing ran") "" (read "out"))
          [
            ("run -k 3 demo.c", "-k/--registers must be >= 4");
            ("dump -k 2 demo.c", "-k/--registers must be >= 4");
            ("table -k 2 demo.c", "-k/--registers must be >= 4");
            ("run --fuel 0 demo.c", "--fuel must be >= 1");
            ("run-il --fuel=-5 demo.il", "--fuel must be >= 1");
            ("gen-fuzz --trials 1 --fuel=-1", "--fuel must be >= 1");
            ("reduce --fuel 0 demo.c", "--fuel must be >= 1");
            ("run --max-depth=-1 demo.c", "--max-depth must be >= 1");
            ("run-il --max-depth 0 demo.il", "--max-depth must be >= 1");
            ("fuzz --trials=-2", "--trials must be >= 1");
            ("gen-fuzz --trials 0", "--trials must be >= 1");
            ("gen-fuzz --trials 1 --budget 0", "--budget must be > 0");
            ("reduce --budget=-1 demo.c", "--budget must be > 0");
          ]);
  ]

let () =
  Alcotest.run "integration"
    [
      ("differential", differential_tests);
      ("paper_shapes", shape_tests);
      ("features", feature_tests);
      ("cli", cli_tests);
    ]
