(** Shared helpers for the test suite. *)

open Rp_driver

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

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
      | exception Rp_exec.Value.Runtime_error _ -> ()
      | _ -> Alcotest.fail "expected a runtime error")
