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

let class_of_string s =
  List.find_opt
    (fun c -> class_name c = s)
    [ Crash; Degraded_pass; Count_regression; Output_mismatch;
      Checksum_mismatch; Trap_mismatch; Fuel_imbalance ]

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

(* ------------------------------------------------------------------ *)
(* One run, one comparison                                             *)
(* ------------------------------------------------------------------ *)

type cell = Grid | Native

let compare_runs cell ~expected got =
  let open Interp in
  let finding cls fmt = Printf.ksprintf (fun d -> Some (cls, d)) fmt in
  let describe = function
    | Completed r -> Printf.sprintf "completion after %d ops" r.total.ops
    | Trapped m -> Printf.sprintf "trap %S" (excerpt m)
    | Limited l -> Printf.sprintf "limit %S" (excerpt (limit_message l))
  in
  let counts (c : counts) = Printf.sprintf "%d/%d/%d" c.ops c.loads c.stores in
  match (expected, got) with
  (* a run the caller stopped carries no differential signal *)
  | Limited (Stopped _), _ | _, Limited (Stopped _) -> None
  | Completed a, Completed b ->
    if a.output <> b.output then
      finding Output_mismatch "expected %S got %S" (excerpt a.output)
        (excerpt b.output)
    else if a.checksum <> b.checksum then
      finding Checksum_mismatch "expected %d got %d" a.checksum b.checksum
    else if cell = Grid then None
    else if Stdlib.compare a.ret b.ret <> 0 then
      Some
        ( Output_mismatch,
          Format.asprintf "return value: expected %a got %a" Rp_exec.Value.pp
            a.ret Rp_exec.Value.pp b.ret )
    else if a.total <> b.total || a.per_func <> b.per_func then
      finding Count_regression "expected ops/loads/stores %s got %s"
        (counts a.total) (counts b.total)
    else None
  | Trapped m1, Trapped m2 when m1 = m2 -> None
  | Limited l1, Limited l2 when l1 = l2 -> None
  | Completed _, Trapped m ->
    finding Trap_mismatch
      "reference completed but this configuration trapped: %s" (excerpt m)
  | Trapped m, Completed _ ->
    finding Trap_mismatch
      "reference trapped (%s) but this configuration completed" (excerpt m)
  | Trapped _, Trapped _ ->
    finding Trap_mismatch "expected %s got %s" (describe expected)
      (describe got)
  | Completed a, Limited l ->
    finding Fuel_imbalance "reference ran %d ops; %s" a.total.ops
      (limit_message l)
  | _ ->
    finding Fuel_imbalance "expected %s got %s" (describe expected)
      (describe got)

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
  match Pipeline.compile ~config:Config.o0 src with
  | exception Rp_minic.Srcloc.Error (loc, msg) ->
    Rejected (Rp_minic.Srcloc.to_string (loc, msg))
  | exception e -> Rejected (Printexc.to_string e)
  | p0, _ -> (
    match Interp.outcome (fun () -> Interp.run ~fuel ?should_stop p0) with
    | Interp.Limited l ->
      Inconclusive ("reference run: " ^ Interp.limit_message l)
    | reference ->
      let ref_ops =
        match reference with
        | Interp.Completed r -> r.Interp.total.Interp.ops
        | _ -> 0
      in
      let cfg_fuel = max ((4 * ref_ops) + 10_000) 100_000 in
      let failures = ref [] in
      let add config cls detail =
        failures := { config; cls; detail } :: !failures
      in
      let judge config cell ~expected got =
        Option.iter
          (fun (cls, detail) -> add config cls detail)
          (compare_runs cell ~expected got)
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
            match
              Pipeline.with_fault_hook hook (fun () ->
                  Pipeline.optimize ~config:cfg p)
            with
            | exception e -> add name Crash (Printexc.to_string e)
            | stats ->
              List.iter
                (fun (pass, reason) ->
                  add name
                    (match reason with
                    | Pipeline.Count_regressed _ -> Count_regression
                    | _ -> Degraded_pass)
                    (Printf.sprintf "pass %s rolled back: %s" pass
                       (excerpt (Fmt.str "%a" Pipeline.pp_reason reason))))
                stats.Pipeline.degraded;
              judge name Grid ~expected:reference
                (Interp.outcome (fun () -> Interp.run ~fuel:cfg_fuel ?should_stop p))
          end)
        Config.paper_grid;
      (* Interpreter-vs-native cell: one more compile of the same source
         under [Config.default] — no fault injection, no mode hardening,
         because both executors run the *identical* post-regalloc program.
         The compiled backend must reproduce the interpreter bit for bit
         (output, checksum, return value, dynamic counts, even the trap
         message), so any difference here is a code-generator bug rather
         than an optimizer bug.  Infrastructure failures (cc missing,
         binary killed) raise {!Rp_backend.Native.Error} and are classed
         [Crash] — visible, but never mistaken for a behavioural
         divergence. *)
      (match native with
      | Some cc when not (past_deadline ()) -> (
        match Pipeline.compile src with
        | exception e -> add "native" Crash (Printexc.to_string e)
        | p, _ -> (
          let interpreted =
            Interp.outcome (fun () -> Interp.run ~fuel:cfg_fuel ?should_stop p)
          in
          let budget =
            Option.map
              (fun d -> Float.max (d -. Rp_support.Clock.now ()) 0.05)
              deadline
          in
          match
            Interp.outcome (fun () ->
                Rp_backend.Native.run ~fuel:cfg_fuel ?deadline:budget
                  ?should_stop ~cc p)
          with
          | exception Rp_backend.Native.Error m ->
            add "native" Crash ("native backend: " ^ excerpt m)
          | native -> judge "native" Native ~expected:interpreted native))
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
    replay them on a rerun with [--journal] without re-running the
    trial. *)
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
