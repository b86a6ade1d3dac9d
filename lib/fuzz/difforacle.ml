(** Cross-configuration differential oracle (see [rpcc gen-fuzz]).

    One generated (safe, terminating) program; seven compiles.  The [O0]
    reference — front-end semantics, no analysis, no optimizer — fixes the
    intended behaviour, then each of the six grid configurations (the
    paper's four plus the §3.3 [modref/ptr] and [pointer/ptr] cells) must
    reproduce its output and checksum exactly, trap identically if it
    traps, and finish within a fuel budget proportional to the reference
    run.  Any difference is a compiler bug by construction, because the
    generator never emits undefined behaviour.

    Beyond the behavioural comparison, each grid compile can run with the
    hardened pipeline armed ({!Verify} adds per-pass structural
    validation, {!OraclePasses} the per-pass execution oracle that also
    catches unsound dynamic-count regressions), turning every rollback
    recorded by the isolation guard into a reported divergence with the
    offending pass named.

    The oracle can also {e plant} a fault (via {!Faultgen.mutate}) inside
    the first guarded pass of every grid compile — never the reference —
    which is how the end-to-end tests prove a real miscompile is caught
    and shrunk. *)

module Config = Rp_driver.Config
module Pipeline = Rp_driver.Pipeline
module Interp = Rp_exec.Interp

type mode = Plain | Verify | OraclePasses

type cls =
  | Crash
  | Degraded_pass
  | Count_regression
  | Output_mismatch
  | Checksum_mismatch
  | Trap_mismatch
  | Fuel_imbalance

let class_name = function
  | Crash -> "crash"
  | Degraded_pass -> "degraded"
  | Count_regression -> "counts"
  | Output_mismatch -> "output"
  | Checksum_mismatch -> "checksum"
  | Trap_mismatch -> "trap"
  | Fuel_imbalance -> "fuel"

let class_of_string = function
  | "crash" -> Some Crash
  | "degraded" -> Some Degraded_pass
  | "counts" -> Some Count_regression
  | "output" -> Some Output_mismatch
  | "checksum" -> Some Checksum_mismatch
  | "trap" -> Some Trap_mismatch
  | "fuel" -> Some Fuel_imbalance
  | _ -> None

type failure = { config : string; cls : cls; detail : string }

type outcome =
  | Agree of { configs : int; ref_ops : int }
  | Rejected of string
  | Inconclusive of string
  | Diverged of failure list

let default_fuel = 2_000_000

(* ------------------------------------------------------------------ *)
(* Plumbing                                                            *)
(* ------------------------------------------------------------------ *)

let with_hook hook f = Pipeline.with_fault_hook hook f

let mode_config mode (cfg : Config.t) =
  match mode with
  | Plain -> cfg
  | Verify -> { cfg with Config.verify_passes = true }
  | OraclePasses -> { cfg with Config.verify_passes = true; oracle = true }

(** Excerpt a string for a failure detail: one line, bounded length. *)
let excerpt s =
  let s = String.map (function '\n' -> '|' | c -> c) s in
  if String.length s <= 96 then s
  else Printf.sprintf "%s... (%d bytes)" (String.sub s 0 96) (String.length s)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(** The per-pass oracle prefixes count regressions with "oracle:" and
    names the regressed counter; classify those separately because a
    count-reducing pass that increases dynamic operations is exactly the
    paper-level unsoundness the harness exists to find. *)
let reason_class reason =
  if contains_sub ~sub:"count regressed" reason then Count_regression
  else Degraded_pass

type run_outcome =
  | Rok of string * int * int  (** output, checksum, executed ops *)
  | Rtrap of string
  | Rfuel of string

let run_program ~fuel ?should_stop p =
  match Interp.run ~fuel ?should_stop p with
  | r -> Rok (r.Interp.output, r.Interp.checksum, r.Interp.total.Interp.ops)
  | exception Interp.Resource_limit m -> Rfuel m
  | exception Rp_exec.Value.Runtime_error m -> Rtrap m

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let check ?(mode = Verify) ?(fuel = default_fuel) ?deadline
    ?(should_stop = fun () -> false) ?inject ?native (src : string) : outcome =
  let past_deadline () =
    should_stop ()
    || match deadline with Some d -> Rp_support.Clock.now () > d | None -> false
  in
  let should_stop = Some past_deadline in
  (* Reference: O0 front-end semantics.  A program the front end rejects
     is rejected identically under every configuration, so it carries no
     differential signal; same for a reference run that exhausts fuel. *)
  match
    let p = Rp_irgen.Irgen.compile_source src in
    ignore (Pipeline.optimize ~config:Config.o0 p : Pipeline.stage_stats);
    p
  with
  | exception Rp_minic.Srcloc.Error (loc, msg) ->
    Rejected (Rp_minic.Srcloc.to_string (loc, msg))
  | exception e -> Rejected (Printexc.to_string e)
  | p0 -> (
    match run_program ~fuel ?should_stop p0 with
    | Rfuel m -> Inconclusive ("reference run: " ^ m)
    | ref_out ->
      let ref_ops = match ref_out with Rok (_, _, o) -> o | _ -> 0 in
      let cfg_fuel = max ((4 * ref_ops) + 10_000) 100_000 in
      let failures = ref [] in
      let add config cls detail =
        failures := { config; cls; detail } :: !failures
      in
      List.iteri
        (fun idx (name, cfg) ->
          if not (past_deadline ()) then begin
            let cfg = mode_config mode cfg in
            let p = Rp_irgen.Irgen.compile_source src in
            let hook =
              match inject with
              | None -> fun _ -> ()
              | Some (fc, iseed) ->
                (* one mutation per compile, at the first guarded pass;
                   [idx] keeps the per-configuration streams distinct *)
                let rng = Random.State.make [| 0x696e6a; iseed; idx |] in
                let fired = ref false in
                fun _pass ->
                  if not !fired then begin
                    fired := true;
                    ignore (Faultgen.mutate rng fc p : string option)
                  end
            in
            match with_hook hook (fun () -> Pipeline.optimize ~config:cfg p) with
            | exception e -> add name Crash (Printexc.to_string e)
            | stats ->
              List.iter
                (fun (pass, reason) ->
                  add name (reason_class reason)
                    (Printf.sprintf "pass %s rolled back: %s" pass
                       (excerpt reason)))
                stats.Pipeline.degraded;
              (match (ref_out, run_program ~fuel:cfg_fuel ?should_stop p) with
              | _, Rfuel m ->
                if not (past_deadline ()) then
                  add name Fuel_imbalance
                    (Printf.sprintf "reference ran %d ops; %s" ref_ops m)
              | Rok (o1, c1, _), Rok (o2, c2, _) ->
                if o1 <> o2 then
                  add name Output_mismatch
                    (Printf.sprintf "expected %S got %S" (excerpt o1)
                       (excerpt o2))
                else if c1 <> c2 then
                  add name Checksum_mismatch
                    (Printf.sprintf "expected %d got %d" c1 c2)
              | Rtrap m1, Rtrap m2 ->
                if m1 <> m2 then
                  add name Trap_mismatch
                    (Printf.sprintf "expected trap %S got trap %S" (excerpt m1)
                       (excerpt m2))
              | Rtrap m, Rok _ ->
                add name Trap_mismatch
                  (Printf.sprintf "reference trapped (%s) but this \
                                   configuration completed" (excerpt m))
              | Rok _, Rtrap m ->
                add name Trap_mismatch
                  (Printf.sprintf "reference completed but this \
                                   configuration trapped: %s" (excerpt m))
              | Rfuel _, _ -> assert false)
          end)
        Config.paper_grid;
      (* Interpreter-vs-native cell: one more compile of the same source
         under [Config.default] — no fault injection, no mode hardening,
         because both executors run the *identical* post-regalloc program.
         The compiled backend must reproduce the interpreter bit for bit
         (output, checksum, dynamic counts, even the trap message), so any
         difference here is a code-generator bug rather than an optimizer
         bug.  Infrastructure failures (cc missing, binary killed) raise
         {!Rp_backend.Native.Error} and are classed [Crash] — visible, but
         never mistaken for a behavioural divergence. *)
      (match native with
      | Some cc when not (past_deadline ()) -> (
        let p = Rp_irgen.Irgen.compile_source src in
        match Pipeline.optimize ~config:Config.default p with
        | exception e -> add "native" Crash (Printexc.to_string e)
        | (_ : Pipeline.stage_stats) -> (
          let run_exec f =
            match f () with
            | (r : Interp.result) -> Ok r
            | exception Interp.Resource_limit m -> Error (`Limit m)
            | exception Rp_exec.Value.Runtime_error m -> Error (`Trap m)
            | exception Rp_backend.Native.Error m -> Error (`Infra m)
          in
          let ir =
            run_exec (fun () -> Interp.run ~fuel:cfg_fuel ?should_stop p)
          in
          let budget =
            match deadline with
            | Some d ->
              let left = d -. Rp_support.Clock.now () in
              Some (if left > 0.05 then left else 0.05)
            | None -> None
          in
          let nr =
            run_exec (fun () ->
                Rp_backend.Native.run ~fuel:cfg_fuel ?deadline:budget ~cc p)
          in
          match (ir, nr) with
          | _, Error (`Infra m) ->
            add "native" Crash ("native backend: " ^ excerpt m)
          | Error (`Infra _), _ -> assert false
          | Ok a, Ok b ->
            if a.Interp.output <> b.Interp.output then
              add "native" Output_mismatch
                (Printf.sprintf "interpreter %S native %S"
                   (excerpt a.Interp.output) (excerpt b.Interp.output))
            else if a.Interp.checksum <> b.Interp.checksum then
              add "native" Checksum_mismatch
                (Printf.sprintf "interpreter %d native %d" a.Interp.checksum
                   b.Interp.checksum)
            else if Stdlib.compare a.Interp.ret b.Interp.ret <> 0 then
              add "native" Output_mismatch
                (Format.asprintf "return value: interpreter %a native %a"
                   Rp_exec.Value.pp a.Interp.ret Rp_exec.Value.pp b.Interp.ret)
            else if
              a.Interp.total <> b.Interp.total
              || a.Interp.per_func <> b.Interp.per_func
            then
              add "native" Count_regression
                (Printf.sprintf
                   "interpreter ops/loads/stores %d/%d/%d native %d/%d/%d"
                   a.Interp.total.Interp.ops a.Interp.total.Interp.loads
                   a.Interp.total.Interp.stores b.Interp.total.Interp.ops
                   b.Interp.total.Interp.loads b.Interp.total.Interp.stores)
          | Error (`Trap m1), Error (`Trap m2) when m1 = m2 -> ()
          | Error (`Limit m1), Error (`Limit m2) when m1 = m2 -> ()
          (* a limit reached because the wall-clock budget ran out mid-cell
             carries no differential signal, matching the grid's policy *)
          | _, Error (`Limit _) when past_deadline () -> ()
          | Error (`Limit _), _ when past_deadline () -> ()
          | Error (`Trap m1), Error (`Trap m2) ->
            add "native" Trap_mismatch
              (Printf.sprintf "interpreter trap %S native trap %S" (excerpt m1)
                 (excerpt m2))
          | Ok _, Error (`Trap m) ->
            add "native" Trap_mismatch
              (Printf.sprintf "interpreter completed but native trapped: %s"
                 (excerpt m))
          | Error (`Trap m), Ok _ ->
            add "native" Trap_mismatch
              (Printf.sprintf "interpreter trapped (%s) but native completed"
                 (excerpt m))
          | Error (`Limit m1), Error (`Limit m2) ->
            add "native" Fuel_imbalance
              (Printf.sprintf "interpreter limit %S native limit %S"
                 (excerpt m1) (excerpt m2))
          | Ok _, Error (`Limit m) ->
            add "native" Fuel_imbalance
              (Printf.sprintf "interpreter completed but native hit a limit: \
                               %s" (excerpt m))
          | Error (`Limit m), Ok _ ->
            add "native" Fuel_imbalance
              (Printf.sprintf "interpreter hit a limit (%s) but native \
                               completed" (excerpt m))
          | Error (`Trap m1), Error (`Limit m2) | Error (`Limit m1), Error (`Trap m2) ->
            add "native" Fuel_imbalance
              (Printf.sprintf "interpreter %S native %S" (excerpt m1)
                 (excerpt m2))))
      | _ -> ());
      match List.rev !failures with
      | [] ->
        if past_deadline () then Inconclusive "wall-clock budget exhausted"
        else
          Agree
            {
              configs =
                List.length Config.paper_grid
                + (if Option.is_some native then 1 else 0);
              ref_ops;
            }
      | fs -> Diverged fs)

(* ------------------------------------------------------------------ *)
(* Journal serialization                                               *)
(* ------------------------------------------------------------------ *)

module Json = Rp_support.Json

(** Outcomes round-trip through line-JSON so a campaign journal can
    replay them on [--resume] without re-running the trial. *)
let outcome_json : outcome -> Json.t = function
  | Agree { configs; ref_ops } ->
    Json.Obj
      [
        ("kind", Json.Str "agree");
        ("configs", Json.Int configs);
        ("ref_ops", Json.Int ref_ops);
      ]
  | Rejected m -> Json.Obj [ ("kind", Json.Str "rejected"); ("msg", Json.Str m) ]
  | Inconclusive m ->
    Json.Obj [ ("kind", Json.Str "inconclusive"); ("msg", Json.Str m) ]
  | Diverged fs ->
    Json.Obj
      [
        ("kind", Json.Str "diverged");
        ( "failures",
          Json.List
            (List.map
               (fun f ->
                 Json.Obj
                   [
                     ("config", Json.Str f.config);
                     ("cls", Json.Str (class_name f.cls));
                     ("detail", Json.Str f.detail);
                   ])
               fs) );
      ]

let outcome_of_json (j : Json.t) : outcome option =
  let str k fields =
    match List.assoc_opt k fields with Some (Json.Str s) -> Some s | _ -> None
  in
  let int k fields =
    match List.assoc_opt k fields with Some (Json.Int i) -> Some i | _ -> None
  in
  match j with
  | Json.Obj fields -> (
    match str "kind" fields with
    | Some "agree" -> (
      match (int "configs" fields, int "ref_ops" fields) with
      | Some configs, Some ref_ops -> Some (Agree { configs; ref_ops })
      | _ -> None)
    | Some "rejected" -> Option.map (fun m -> Rejected m) (str "msg" fields)
    | Some "inconclusive" ->
      Option.map (fun m -> Inconclusive m) (str "msg" fields)
    | Some "diverged" -> (
      match List.assoc_opt "failures" fields with
      | Some (Json.List fs) ->
        let parse_failure = function
          | Json.Obj f -> (
            match (str "config" f, str "cls" f, str "detail" f) with
            | Some config, Some cls, Some detail ->
              Option.map
                (fun cls -> { config; cls; detail })
                (class_of_string cls)
            | _ -> None)
          | _ -> None
        in
        let parsed = List.map parse_failure fs in
        if List.for_all Option.is_some parsed then
          Some (Diverged (List.filter_map Fun.id parsed))
        else None
      | _ -> None)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_failure ppf f =
  Format.fprintf ppf "[%s] %s: %s" f.config (class_name f.cls) f.detail

let pp_outcome ppf = function
  | Agree { configs; ref_ops } ->
    Format.fprintf ppf "agree across %d configurations (%d reference ops)"
      configs ref_ops
  | Rejected m -> Format.fprintf ppf "rejected: %s" m
  | Inconclusive m -> Format.fprintf ppf "inconclusive: %s" m
  | Diverged fs ->
    Format.fprintf ppf "DIVERGED (%d failure%s)" (List.length fs)
      (if List.length fs = 1 then "" else "s");
    List.iter (fun f -> Format.fprintf ppf "@.  %a" pp_failure f) fs
