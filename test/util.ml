(** Shared helpers for the test suite. *)

open Rp_driver

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

(** Whether [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(** Every cached native binary in the content-addressed store rooted at
    [root]. *)
let native_bins root =
  let objects = Filename.concat root "objects" in
  let ls d = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
  List.concat_map
    (fun d ->
      let dir = Filename.concat objects d in
      List.filter_map
        (fun f ->
          if Filename.check_suffix f ".native-bin" then
            Some (Filename.concat dir f)
          else None)
        (ls dir))
    (ls objects)

(** The report of an [rpcc fuzz] campaign without a journal, run through
    the same campaign runner at [jobs] workers: a trial that crashes
    shows as quarantined. *)
let fuzz_report ~seed ~seeds ~jobs =
  let module F = Rp_fuzz.Faultgen in
  let flags =
    { Rp_cli.jobs = Some jobs; job_timeout = None; journal = None }
  in
  Rp_cli.run_campaign flags ~id:(F.campaign_id ~seed) ~name:string_of_int
    ~encode:(fun t -> Some (F.trial_json t)) ~decode:F.trial_of_json
    (F.trial ~seed) (List.init seeds Fun.id)
  |> List.filter_map Result.to_option
  |> F.report ~seed ~trials:seeds

(** Compile source text to IL (front end only). *)
let front src = Rp_irgen.Irgen.compile_source src

(** Compile under a configuration. *)
let compile ?(config = Config.default) src = fst (Pipeline.compile ~config src)

(** Compile and run; returns the interpreter result. *)
let run ?(config = Config.default) ?fuel src =
  let (_, _, r) = Pipeline.compile_and_run ~config ?fuel src in
  r

let output ?config ?fuel src = (run ?config ?fuel src).Rp_exec.Interp.output

(** Run [src] under every configuration in [configs] (default: a broad
    grid) and assert identical outputs; returns the common output. *)
let differential ?(configs = []) src =
  let configs =
    if configs <> [] then configs
    else
      [
        ("O0",
         { Config.default with
           Config.analysis = Config.Anone; promote = false; optimize = false;
           regalloc = false });
        ("opt-only",
         { Config.default with Config.analysis = Config.Anone; promote = false });
        ("modref", { Config.default with Config.promote = false });
        ("modref+promo", Config.default);
        ("pointer+promo",
         { Config.default with Config.analysis = Config.Apointer });
        ("pointer+ptr+always",
         { Config.default with
           Config.analysis = Config.Apointer; ptr_promote = true;
           always_store = true });
        ("k8", { Config.default with Config.k = 8 });
      ]
  in
  let results =
    List.map (fun (n, cfg) -> (n, run ~config:cfg src)) configs
  in
  match results with
  | [] -> assert false
  | (_, first) :: rest ->
    List.iter
      (fun (n, r) ->
        check Alcotest.string
          ("differential output under " ^ n)
          first.Rp_exec.Interp.output r.Rp_exec.Interp.output)
      rest;
    first.Rp_exec.Interp.output

(** Assert the program's final counts under a config. *)
let counts ?config src =
  let r = run ?config src in
  let t = r.Rp_exec.Interp.total in
  (t.Rp_exec.Interp.ops, t.Rp_exec.Interp.loads, t.Rp_exec.Interp.stores)

(** Expect a front-end failure. *)
let expect_frontend_error name src =
  tc name (fun () ->
      match front src with
      | exception Rp_minic.Srcloc.Error _ -> ()
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected a front-end error")

(** Expect a runtime trap. *)
let expect_runtime_error ?config name src =
  tc name (fun () ->
      match run ?config src with
      | exception Rp_exec.Interp.Error _ -> ()
      | _ -> Alcotest.fail "expected a runtime error")

(** Memory misuse, with the exact trap message both backends give under
    [rpcc run]'s default configuration: (name, source, message). *)
let memory_traps =
  [
    ( "out-of-bounds store",
      "int a[3]; int main() { a[5] = 1; return 0; }",
      "out-of-bounds access to 'a' (offset 5, size 3)" );
    ( "cross-object overflow",
      "int a[2]; int b[2]; int main() { int *p = a; return p[3]; }",
      "out-of-bounds access to 'a' (offset 3, size 2)" );
    ( "use after free",
      "int main() { int *p = malloc(2); free(p); return p[0]; }",
      "access to dead object 'heap@0'" );
    ( "dangling local",
      "int *leak() { int x = 3; return &x; } int main() { int *p = leak(); \
       return *p; }",
      "tag-set violation in Load: object 'leak.x' not in static tag set []" );
    ( "free of an interior pointer",
      "int main() { int *p = malloc(2); free(p + 1); return 0; }",
      "free of a non-base pointer <1:+1>" );
    ( "null load", "int main() { int *p = 0; return *p; }",
      "Load through non-pointer 0" );
    ( "double free",
      "int main() { int *p = malloc(2); free(p); free(p); return 0; }",
      "double free of 'heap@0'" );
    ( "free of a local",
      "int main() { int x; x = 1; free(&x); return x; }",
      "free of a non-heap object 'main.x'" );
    ( "free of a global",
      "int g; int main() { free(&g); g = 1; return g; }",
      "free of a non-heap object 'g'" );
  ]

(** A program that outgrows any initial object-table size: 300
    [malloc]/[free] rounds, then recursion 10,000 deep through a function
    with an address-taken local, each frame's value read back through the
    pointer its callee was given.  Prints sum(0..299) + sum(0..10000). *)
let growth_src =
  "int walk(int n, int *up) {\n\
  \  int x;\n\
  \  x = n;\n\
  \  if (n < 10000) return walk(n + 1, &x) + *up;\n\
  \  return x + *up;\n\
   }\n\
   int main() {\n\
  \  int i; int *p; int base; int total;\n\
  \  total = 0;\n\
  \  for (i = 0; i < 300; i++) {\n\
  \    p = malloc(2);\n\
  \    p[0] = i;\n\
  \    p[1] = p[0];\n\
  \    total = total + p[1];\n\
  \    free(p);\n\
  \  }\n\
  \  base = 0;\n\
  \  print_int(total + walk(0, &base));\n\
  \  return 0;\n\
   }\n"

let growth_output = "50049850\n"

(** A program that traps in the middle of a block after a loop of calls.
    Under [rpcc run]'s default configuration, a fuel budget below
    [fuel_trap_at] operations runs out first and any budget from
    [fuel_trap_at] on reaches the trap: the threshold an interpreter that
    ticks once per operation gives. *)
let fuel_trap_src =
  "int g;\n\
   int a[4];\n\
   int bump(int x) { g = g + x; return g; }\n\
   int main() {\n\
  \  int i;\n\
  \  for (i = 0; i < 40; i++) bump(i % 3);\n\
  \  a[1] = g;\n\
  \  a[g] = 1;\n\
  \  return 0;\n\
   }\n"

let fuel_trap_at = 414
let fuel_trap_msg = "out-of-bounds access to 'a' (offset 39, size 4)"

(** Sweep [run ~fuel] over every budget from 1 to past the trap: each
    must end in exactly the [Fuel] limit or the trap the per-op
    threshold gives. *)
let fuel_sweep (run : fuel:int -> unit) =
  let module I = Rp_exec.Interp in
  for fuel = 1 to fuel_trap_at + 40 do
    let got =
      match run ~fuel with
      | () -> "completed"
      | exception I.Resource_limit (I.Fuel n) -> Printf.sprintf "fuel %d" n
      | exception I.Error m -> m
    in
    let want =
      if fuel < fuel_trap_at then Printf.sprintf "fuel %d" fuel
      else fuel_trap_msg
    in
    check Alcotest.string (Printf.sprintf "fuel %d" fuel) want got
  done
