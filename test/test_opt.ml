(** Optimizer tests: liveness, value numbering (with store forwarding),
    constant propagation and branch folding, LICM's division of labour with
    the promoter, availability-based redundant-load elimination (the PRE
    slot), dead-code elimination, and copy propagation. *)

open Rp_ir
module IS = Rp_support.Smaps.Int_set

(* Count instructions matching a predicate in a compiled program. *)
let count_instrs pred (p : Program.t) =
  let n = ref 0 in
  Program.iter_funcs
    (fun f -> Func.iter_instrs (fun _ i -> if pred i then incr n) f)
    p

let static_loads p =
  let n = ref 0 in
  count_instrs (fun i -> if Instr.is_load i then incr n; false) p |> ignore;
  !n

let _ = static_loads

(* Build a one-block function for pass unit tests. *)
let one_block instrs =
  let f = Func.create ~name:"t" ~nparams:0 in
  f.Func.nreg <- 64;
  Func.add_block f (Block.create ~instrs ~term:(Instr.Ret (Some 0)) "entry");
  f

let table = Tag.Table.create ()
let tx = Tag.Table.fresh table ~name:"x" ~storage:Tag.Global ()
let ty_ = Tag.Table.fresh table ~name:"y" ~storage:Tag.Global ()

let liveness_tests =
  [
    Util.tc "live across a block" (fun () ->
        let f =
          one_block
            [ Instr.Loadi (1, Instr.Cint 5); Instr.Binop (Instr.Add, 0, 1, 1) ]
        in
        let lv = Rp_opt.Liveness.compute f in
        Util.check Alcotest.bool "nothing live in" true
          (IS.is_empty (Rp_opt.Liveness.live_in lv "entry")));
    Util.tc "loop keeps the accumulator live around the backedge" (fun () ->
        let p =
          Util.front
            "int main() { int s = 0; int i; for (i = 0; i < 9; i++) s += i; \
             return s; }"
        in
        let f = Program.func p "main" in
        let lv = Rp_opt.Liveness.compute f in
        (* some block has a nonempty live-in (the loop header at least) *)
        let any = ref false in
        Func.iter_blocks
          (fun b ->
            if not (IS.is_empty (Rp_opt.Liveness.live_in lv b.Block.label))
            then any := true)
          f;
        Util.check Alcotest.bool "live sets nonempty" true !any);
    Util.tc "live_after_each matches defs/uses locally" (fun () ->
        let f =
          one_block
            [ Instr.Loadi (1, Instr.Cint 5); Instr.Binop (Instr.Add, 0, 1, 1) ]
        in
        let lv = Rp_opt.Liveness.compute f in
        let arr =
          Rp_opt.Liveness.live_after_each f lv (Func.block f "entry")
        in
        (* after the Loadi, r1 is live (used by the add); after the add,
           r0 is live (used by ret) *)
        Util.check Alcotest.bool "r1 live after loadi" true (IS.mem 1 arr.(0));
        Util.check Alcotest.bool "r0 live after add" true (IS.mem 0 arr.(1));
        Util.check Alcotest.bool "r1 dead after add" false (IS.mem 1 arr.(1)));
  ]

let valnum_tests =
  [
    Util.tc "redundant computation becomes a copy" (fun () ->
        let f =
          one_block
            [
              Instr.Loadi (1, Instr.Cint 5);
              Instr.Loadi (2, Instr.Cint 7);
              Instr.Binop (Instr.Add, 3, 1, 2);
              Instr.Binop (Instr.Add, 4, 1, 2);
              Instr.Binop (Instr.Add, 0, 3, 4);
            ]
        in
        ignore (Rp_opt.Valnum.run_func f : int);
        match (Func.block f "entry").Block.instrs with
        | [ _; _; _; Instr.Copy (4, 3); _ ] -> ()
        | is ->
          Alcotest.failf "unexpected: %s"
            (Fmt.str "%a" Fmt.(list ~sep:(any "; ") Instr.pp) is));
    Util.tc "commutative operands canonicalize" (fun () ->
        let f =
          one_block
            [
              Instr.Loadi (1, Instr.Cint 5);
              Instr.Loadi (2, Instr.Cint 7);
              Instr.Binop (Instr.Add, 3, 1, 2);
              Instr.Binop (Instr.Add, 4, 2, 1);
              Instr.Binop (Instr.Add, 0, 3, 4);
            ]
        in
        ignore (Rp_opt.Valnum.run_func f : int);
        match (Func.block f "entry").Block.instrs with
        | [ _; _; _; Instr.Copy (4, 3); _ ] -> ()
        | _ -> Alcotest.fail "a+b and b+a should share a value number");
    Util.tc "non-commutative operands do not canonicalize" (fun () ->
        let f =
          one_block
            [
              Instr.Loadi (1, Instr.Cint 5);
              Instr.Loadi (2, Instr.Cint 7);
              Instr.Binop (Instr.Sub, 3, 1, 2);
              Instr.Binop (Instr.Sub, 4, 2, 1);
              Instr.Binop (Instr.Add, 0, 3, 4);
            ]
        in
        ignore (Rp_opt.Valnum.run_func f : int);
        match (Func.block f "entry").Block.instrs with
        | [ _; _; Instr.Binop _; Instr.Binop _; _ ] -> ()
        | _ -> Alcotest.fail "a-b and b-a must stay distinct");
    Util.tc "redundant load becomes a copy" (fun () ->
        let f =
          one_block
            [ Instr.Loads (1, tx); Instr.Loads (2, tx);
              Instr.Binop (Instr.Add, 0, 1, 2) ]
        in
        ignore (Rp_opt.Valnum.run_func f : int);
        match (Func.block f "entry").Block.instrs with
        | [ Instr.Loads (1, _); Instr.Copy (2, 1); _ ] -> ()
        | _ -> Alcotest.fail "second load should be a copy");
    Util.tc "store kills loads of the same tag only" (fun () ->
        let f =
          one_block
            [
              Instr.Loads (1, tx);
              Instr.Loads (2, ty_);
              Instr.Loadi (3, Instr.Cint 1);
              Instr.Stores (tx, 3);
              Instr.Loads (4, tx);
              Instr.Loads (5, ty_);
              Instr.Binop (Instr.Add, 0, 4, 5);
            ]
        in
        ignore (Rp_opt.Valnum.run_func f : int);
        let is = (Func.block f "entry").Block.instrs in
        (* the load of y is redundant; the reload of x forwards the store *)
        let copies = List.filter (function Instr.Copy _ -> true | _ -> false) is in
        Util.check Alcotest.int "two rewrites" 2 (List.length copies));
    Util.tc "store-to-load forwarding" (fun () ->
        let f =
          one_block
            [ Instr.Loadi (1, Instr.Cint 42); Instr.Stores (tx, 1);
              Instr.Loads (0, tx) ]
        in
        ignore (Rp_opt.Valnum.run_func f : int);
        match (Func.block f "entry").Block.instrs with
        | [ _; Instr.Stores _; Instr.Copy (0, 1) ] -> ()
        | _ -> Alcotest.fail "load should forward from the store");
    Util.tc "redundant store eliminated" (fun () ->
        let f =
          one_block
            [ Instr.Loadi (0, Instr.Cint 1); Instr.Stores (tx, 0);
              Instr.Stores (tx, 0) ]
        in
        ignore (Rp_opt.Valnum.run_func f : int);
        let stores =
          List.filter Instr.is_store (Func.block f "entry").Block.instrs
        in
        Util.check Alcotest.int "one store" 1 (List.length stores));
    Util.tc "call with universal mods kills everything" (fun () ->
        let call =
          Instr.Call
            { target = Instr.Direct "ext"; args = []; ret = None;
              mods = Tagset.univ; refs = Tagset.univ; targets = [ "ext" ];
              site = 0 }
        in
        let f =
          one_block
            [ Instr.Loads (1, tx); call; Instr.Loads (2, tx);
              Instr.Binop (Instr.Add, 0, 1, 2) ]
        in
        ignore (Rp_opt.Valnum.run_func f : int);
        let loads =
          List.filter Instr.is_load (Func.block f "entry").Block.instrs
        in
        Util.check Alcotest.int "both loads survive" 2 (List.length loads));
    Util.tc "semantics preserved end to end" (fun () ->
        ignore
          (Util.differential
             "int g; int main() { g = 3; int a = g + g; int b = g + g; \
              print_int(a * b); return 0; }"));
  ]

let constprop_tests =
  [
    Util.tc "folds arithmetic on constants" (fun () ->
        let p =
          Util.compile ~config:{ Rp_driver.Config.default with
                                 Rp_driver.Config.regalloc = false }
            "int main() { return 2 * 3 + 4; }"
        in
        (* the return value should come from a single iLoad 10 *)
        let f = Program.func p "main" in
        let found = ref false in
        Func.iter_instrs
          (fun _ i ->
            match i with Instr.Loadi (_, Instr.Cint 10) -> found := true | _ -> ())
          f;
        Util.check Alcotest.bool "folded to 10" true !found);
    Util.tc "branch folding removes the dead arm" (fun () ->
        let p =
          Util.compile
            "int main() { if (0) { print_int(111); } print_int(5); return \
             0; }"
        in
        let f = Program.func p "main" in
        Func.iter_instrs
          (fun _ i ->
            match i with
            | Instr.Loadi (_, Instr.Cint 111) ->
              Alcotest.fail "dead arm survived"
            | _ -> ())
          f);
    Util.tc "division by zero is not folded away" (fun () ->
        (* folding 1/0 would hide the trap *)
        match Util.run "int main() { int z = 0; return 1 / z; }" with
        | exception Rp_exec.Interp.Error _ -> ()
        | _ -> Alcotest.fail "expected a trap");
    Util.tc "algebraic identities" (fun () ->
        ignore
          (Util.differential
             "int main() { int x = rand(); print_int(x + 0); print_int(x * \
              1); print_int(x << 0); print_int(0 + x); return 0; }"));
    Util.tc "single-def constants propagate across blocks" (fun () ->
        let p =
          Util.compile
            "int main() { int k = 6; int s = 0; int i; for (i = 0; i < 3; \
             i++) { s += k; } return s; }"
        in
        (* k's adds should use a constant, leaving no cross-block copy of k;
           just check the program still computes 18 *)
        let r = Rp_exec.Interp.run p in
        Util.check Alcotest.bool "returns 18" true
          (r.Rp_exec.Interp.ret = Rp_exec.Value.Vint 18));
  ]

let licm_tests =
  [
    Util.tc "pure invariant computation hoists" (fun () ->
        let src =
          "int main() { int a = rand(); int s = 0; int i; for (i = 0; i < \
           100; i++) { s += a * 7; } print_int(s); return 0; }"
        in
        let cfg =
          { Rp_driver.Config.default with Rp_driver.Config.promote = false }
        in
        let (ops, _, _) = Util.counts ~config:cfg src in
        (* the multiply must not execute 100 times: ops well under the
           unhoisted count.  Compare against optimize=false *)
        let cfg0 =
          { cfg with Rp_driver.Config.optimize = false; regalloc = false }
        in
        let (ops0, _, _) = Util.counts ~config:cfg0 src in
        ignore ops0;
        Util.check Alcotest.bool "optimized is cheaper" true (ops < ops0));
    Util.tc "cLoad of a const global hoists out of the loop" (fun () ->
        let src =
          "const int N = 100; int main() { int s = 0; int i; for (i = 0; i \
           < 10000; i++) { s += N; } print_int(s); return 0; }"
        in
        let cfg =
          { Rp_driver.Config.default with Rp_driver.Config.promote = false }
        in
        let (_, loads, _) = Util.counts ~config:cfg src in
        (* without hoisting there would be >= 10000 loads of N *)
        Util.check Alcotest.bool "const load hoisted" true (loads < 100));
    Util.tc "mutable scalar loads are NOT hoisted (promotion's job)"
      (fun () ->
        let src =
          "int n; int main() { n = 100; int s = 0; int i; for (i = 0; i < \
           1000; i++) { s += n; } print_int(s); return 0; }"
        in
        let without =
          { Rp_driver.Config.default with Rp_driver.Config.promote = false }
        in
        let (_, loads_np, _) = Util.counts ~config:without src in
        Util.check Alcotest.bool "n reloaded every iteration" true
          (loads_np >= 1000);
        let (_, loads_p, _) = Util.counts ~config:Rp_driver.Config.default src in
        Util.check Alcotest.bool "promotion removes the reloads" true
          (loads_p < 100));
    Util.tc "division is not speculated" (fun () ->
        ignore
          (Util.differential
             "int main() { int d = 0; int s = 0; int i; for (i = 0; i < 5; \
              i++) { if (i == 0) d = 1; s += 10 / (d + 1); } print_int(s); \
              return 0; }"));
    Util.tc "stores never move" (fun () ->
        let src =
          "int g; int main() { int i; for (i = 0; i < 7; i++) { if (i == 3) \
           g = i; } print_int(g); return 0; }"
        in
        ignore (Util.differential src));
  ]

let pre_tests =
  [
    Util.tc "redundant load across blocks removed" (fun () ->
        let src =
          "int g; int main() { g = 5; int a = g; int b; if (a > 1) { b = g; \
           } else { b = g; } print_int(a + b); return 0; }"
        in
        let cfg =
          { Rp_driver.Config.default with
            Rp_driver.Config.promote = false; regalloc = false }
        in
        let p = Util.compile ~config:cfg src in
        (* after the first access, g's value is available everywhere *)
        let loads = ref 0 in
        Func.iter_instrs
          (fun _ i -> if Instr.is_load i then incr loads)
          (Program.func p "main");
        Util.check Alcotest.bool "at most one static load of g" true (!loads <= 1));
    Util.tc "store makes its value available" (fun () ->
        let f =
          one_block
            [ Instr.Loadi (1, Instr.Cint 3); Instr.Stores (tx, 1);
              Instr.Loads (0, tx) ]
        in
        ignore (Rp_opt.Pre.run_func f : int);
        match (Func.block f "entry").Block.instrs with
        | [ _; _; Instr.Copy (0, 1) ] -> ()
        | _ -> Alcotest.fail "load after store should be a copy");
    Util.tc "kill through calls respected" (fun () ->
        let src =
          "int g; void w() { g = g + 1; } int main() { g = 1; int a = g; \
           w(); int b = g; print_int(a + b); return 0; }"
        in
        Util.check Alcotest.string "output" "3\n" (Util.differential src));
    Util.tc "availability meet is an intersection" (fun () ->
        (* g available on one path only: the join must reload *)
        let src =
          "int g; void w() { g = 77; } int main() { g = 1; if (rand() % 2) \
           { w(); } print_int(g); return 0; }"
        in
        ignore (Util.differential src));
  ]

let dce_tests =
  [
    Util.tc "dead chains vanish" (fun () ->
        let f =
          one_block
            [
              Instr.Loadi (1, Instr.Cint 5);
              Instr.Binop (Instr.Add, 2, 1, 1);
              Instr.Binop (Instr.Mul, 3, 2, 2);
              (* r3 never used *)
              Instr.Loadi (0, Instr.Cint 0);
            ]
        in
        let removed = Rp_opt.Dce.run_func f in
        Util.check Alcotest.int "three removed" 3 removed;
        Util.check Alcotest.int "one left" 1
          (List.length (Func.block f "entry").Block.instrs));
    Util.tc "stores and calls are never removed" (fun () ->
        let call =
          Instr.Call
            { target = Instr.Direct "ext"; args = []; ret = Some 9;
              mods = Tagset.empty; refs = Tagset.empty; targets = [ "ext" ];
              site = 0 }
        in
        let f =
          one_block
            [ Instr.Loadi (1, Instr.Cint 5); Instr.Stores (tx, 1); call;
              Instr.Loadi (0, Instr.Cint 0) ]
        in
        ignore (Rp_opt.Dce.run_func f : int);
        Util.check Alcotest.int "all four instrs kept" 4
          (List.length (Func.block f "entry").Block.instrs));
    Util.tc "dead loads are removable" (fun () ->
        let f =
          one_block [ Instr.Loads (1, tx); Instr.Loadi (0, Instr.Cint 0) ]
        in
        ignore (Rp_opt.Dce.run_func f : int);
        Util.check Alcotest.int "load gone" 1
          (List.length (Func.block f "entry").Block.instrs));
    Util.tc "self copy removed" (fun () ->
        let f =
          one_block [ Instr.Copy (0, 0); Instr.Loadi (0, Instr.Cint 0) ]
        in
        ignore (Rp_opt.Dce.run_func f : int);
        Util.check Alcotest.int "copy gone" 1
          (List.length (Func.block f "entry").Block.instrs));
  ]

let copyprop_tests =
  [
    Util.tc "single-def copy chains collapse" (fun () ->
        let f =
          one_block
            [
              Instr.Loadi (1, Instr.Cint 5);
              Instr.Copy (2, 1);
              Instr.Copy (3, 2);
              Instr.Binop (Instr.Add, 0, 3, 3);
            ]
        in
        ignore (Rp_opt.Copyprop.run_func f : int);
        match List.rev (Func.block f "entry").Block.instrs with
        | Instr.Binop (Instr.Add, 0, 3, 3) :: _ ->
          Alcotest.fail "uses should read r1 directly"
        | Instr.Binop (Instr.Add, 0, 1, 1) :: _ -> ()
        | _ -> Alcotest.fail "unexpected block shape");
    Util.tc "multiply-defined targets are left alone" (fun () ->
        let f =
          one_block
            [
              Instr.Loadi (1, Instr.Cint 5);
              Instr.Loadi (2, Instr.Cint 6);
              Instr.Copy (3, 1);
              Instr.Copy (3, 2);
              Instr.Binop (Instr.Add, 0, 3, 3);
            ]
        in
        ignore (Rp_opt.Copyprop.run_func f : int);
        match List.rev (Func.block f "entry").Block.instrs with
        | Instr.Binop (Instr.Add, 0, 3, 3) :: _ -> ()
        | _ -> Alcotest.fail "r3 has two defs; must not propagate");
    Util.tc "semantics preserved on loop-carried state" (fun () ->
        ignore
          (Util.differential
             "int main() { int s = 0; int t = 1; int i; for (i = 0; i < 10; \
              i++) { int u = t; s += u; t = s; } print_int(s); return 0; }"));
  ]

let dse_cfg = { Rp_driver.Config.default with Rp_driver.Config.dse = true }

let dse_tests =
  [
    Util.tc "overwritten store removed" (fun () ->
        let src =
          "int g; int main() { g = 1; g = 2; print_int(g); return 0; }"
        in
        let (_, _, stores) = Util.counts ~config:dse_cfg src in
        (* value numbering forwards the load, so even the second store is
           dead at main's exit *)
        Util.check Alcotest.int "both stores dead" 0 stores;
        Util.check Alcotest.string "output" "2\n" (Util.output ~config:dse_cfg src));
    Util.tc "trailing stores in main are dead" (fun () ->
        let src =
          "int g; int main() { print_int(3); g = 42; return 0; }"
        in
        let (_, _, stores) = Util.counts ~config:dse_cfg src in
        Util.check Alcotest.int "no stores" 0 stores);
    Util.tc "a read on one path keeps the store" (fun () ->
        let src =
          "int g; int main() { g = 1; if (rand() % 2) print_int(g); g = 2; \
           print_int(g); return 0; }"
        in
        ignore
          (Util.differential
             ~configs:
               [ ("plain", Rp_driver.Config.default); ("dse", dse_cfg) ]
             src));
    Util.tc "call REFs keep stores alive" (fun () ->
        let src =
          "int g; int peek() { return g; } int main() { g = 7; \
           print_int(peek()); g = 0; return 0; }"
        in
        Util.check Alcotest.string "output" "7\n"
          (Util.output ~config:dse_cfg src));
    Util.tc "pointer loads keep stores alive" (fun () ->
        let src =
          "int g; int main() { int *p = &g; g = 9; print_int(*p); return 0; }"
        in
        Util.check Alcotest.string "output" "9\n"
          (Util.output ~config:dse_cfg src));
    Util.tc "may-write through a pointer does not kill a store" (fun () ->
        let src =
          "int g; int h; int main() { int *p; if (rand() % 2) p = &g; else \
           p = &h; g = 5; *p = 1; print_int(g + h); return 0; }"
        in
        ignore
          (Util.differential
             ~configs:
               [ ("plain", Rp_driver.Config.default); ("dse", dse_cfg) ]
             src));
    Util.tc "locals of a returning function die" (fun () ->
        let src =
          "int f() { int x; int *p = &x; *p = 3; int v = *p; x = 99; return \
           v; } int main() { print_int(f()); return 0; }"
        in
        Util.check Alcotest.string "output" "3\n"
          (Util.output ~config:dse_cfg src));
    Util.tc "dse never changes any benchmark's checksum" (fun () ->
        List.iter
          (fun name ->
            let src = (Rp_suite.Programs.find name).Rp_suite.Programs.source in
            Util.check Alcotest.string (name ^ " output")
              (Util.output src) (Util.output ~config:dse_cfg src))
          [ "dhrystone"; "bison"; "gzip(dec)"; "allroots" ]);
    Util.tc "loop-carried stores survive" (fun () ->
        let src =
          "int g; int main() { int i; for (i = 0; i < 5; i++) { g = g + i; \
           } print_int(g); return 0; }"
        in
        Util.check Alcotest.string "output" "10\n"
          (Util.output ~config:{ dse_cfg with Rp_driver.Config.promote = false } src));
  ]

let () =
  Alcotest.run "opt"
    [
      ("liveness", liveness_tests);
      ("valnum", valnum_tests);
      ("constprop", constprop_tests);
      ("licm", licm_tests);
      ("pre", pre_tests);
      ("dce", dce_tests);
      ("copyprop", copyprop_tests);
      ("dse", dse_tests);
    ]
