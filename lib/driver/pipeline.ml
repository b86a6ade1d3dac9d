(** The compilation pipeline, in the paper's §5 order: front end →
    interprocedural analysis → register promotion (early) → value numbering,
    partial redundancy elimination, constant propagation, loop invariant
    code motion, dead code elimination → register allocation → block
    cleaning.

    Every stage is wrapped in a wall-clock timer and the interprocedural
    analyses report their fixpoint iteration counts, so a single compile
    yields a machine-readable per-pass profile (see [rpcc --stats-json] and
    the bench harness's [BENCH_timings.json]).

    {b Hardening.}  The paper's premise is that the analysis may be
    conservative but the transformation may not be wrong — and a production
    compiler extends that to its own bugs: a pass that throws, blows the
    stack, corrupts the IL, or (in oracle mode) miscompiles is {e rolled
    back}, recorded in [stage_stats.degraded], and the rest of the pipeline
    continues on the pre-pass IR.  Likewise an interprocedural analysis
    whose fixpoint blows its budget degrades to the conservative ⊤ answer
    ("promotion finds nothing") instead of killing the compile. *)

open Rp_ir

type reason =
  | Raised of string
  | Invalid_il of string list
  | Changed of string
  | Count_regressed of int * int
  | Budget_exhausted of string

let pp_reason ppf = function
  | Raised m -> Format.pp_print_string ppf m
  | Invalid_il errs ->
    Format.fprintf ppf "validation: %s" (String.concat "; " errs)
  | Changed m -> Format.fprintf ppf "oracle: %s" m
  | Count_regressed (before, after) ->
    Format.fprintf ppf "oracle: dynamic operation count regressed (%d -> %d)"
      before after
  | Budget_exhausted analysis ->
    Format.fprintf ppf "%s fixpoint budget exhausted" analysis

type stage_stats = {
  mutable promoted : int;
  mutable throttled : int;
  mutable ptr_promoted : int;
  mutable hoisted : int;
  mutable vn_rewrites : int;
  mutable pre_removed : int;
  mutable folded : int;
  mutable dce_removed : int;
  mutable dse_removed : int;
  mutable spilled : int;
  mutable coalesced : int;
  mutable analysis_iters : int;
      (** fixpoint iterations spent in interprocedural analysis: MOD/REF
          summary evaluations plus points-to function transfers plus
          Steensgaard constraint rounds, summed over every (re-)run *)
  mutable timings : (string * float) list;
      (** per-pass wall-clock seconds, in execution order *)
  mutable degraded : (string * reason) list;
      (** passes that failed and were rolled back, as (pass, reason), in
          execution order; empty on a healthy compile *)
  mutable converged : bool;
      (** false when an interprocedural analysis exhausted its fixpoint
          budget and the compile fell back to the conservative ⊤ answer *)
  mutable validated_passes : int;
      (** passes whose output passed translation validation (structural
          check, plus the execution oracle in oracle mode); 0 unless
          [Config.verify_passes] or [Config.oracle] is set *)
}

let zero_stage_stats () =
  {
    promoted = 0;
    throttled = 0;
    ptr_promoted = 0;
    hoisted = 0;
    vn_rewrites = 0;
    pre_removed = 0;
    folded = 0;
    dce_removed = 0;
    dse_removed = 0;
    spilled = 0;
    coalesced = 0;
    analysis_iters = 0;
    timings = [];
    degraded = [];
    converged = true;
    validated_passes = 0;
  }

(** Run [f], appending its wall-clock time to [s.timings] under [name].
    Repeated passes (clean, copyprop, valnum) appear once per execution. *)
let timed (s : stage_stats) name f =
  let t0 = Rp_support.Clock.now () in
  let r = f () in
  s.timings <- (name, Rp_support.Clock.elapsed t0) :: s.timings;
  r

exception Degraded of reason
(** Raised {e inside} a guarded pass body to request a rollback (the
    analysis stage's answer to an exhausted fixpoint budget).  Never
    escapes {!optimize}. *)

(** Fault-injection hook for the test-suite and [rpcc fuzz]: called with
    the pass name at the start of every guarded pass body, {e inside} the
    isolation boundary, so a hook that raises exercises exactly the
    rollback path a buggy pass would.  Domain-local, so parallel fuzz
    workers ({!Rp_support.Pool}) inject faults into their own compiles
    only.  Default: no-op. *)
let fault_hook : (string -> unit) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (fun _ -> ()))

(** Run [f] with [hook] installed as this domain's fault hook, restoring
    the previous hook afterwards (even on exceptions). *)
let with_fault_hook (hook : string -> unit) (f : unit -> 'a) : 'a =
  let cell = Domain.DLS.get fault_hook in
  let saved = !cell in
  cell := hook;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* ------------------------------------------------------------------ *)
(* Translation-validation oracle                                       *)
(* ------------------------------------------------------------------ *)

(** Fuel bound for oracle executions: enough for every suite program (the
    largest runs ~1.5M operations) while keeping a diverging mutant from
    hanging the compile. *)
let oracle_fuel = 50_000_000

(** Passes that must never increase the dynamic operation count: pure
    removers and local rewriters.  LICM, PRE, promotion, and regalloc are
    excluded — hoisting/spilling can legitimately add operations on
    zero-trip loops or spilled paths. *)
let count_reducing =
  [ "clean"; "constprop"; "copyprop"; "dce"; "dse"; "valnum" ]

(** Execute serialized IL on an independent round-tripped copy (so lazily
    created heap tags never leak into the live program's tag table). *)
let oracle_run (il : string) =
  Rp_exec.Interp.(outcome (fun () -> run ~fuel:oracle_fuel (Serial.read il)))

(** Compare the behaviour of the pre-pass IR ([pre_il]) against the
    current (post-pass) program: output and checksum must agree exactly,
    traps must be identical, and count-reducing passes must not regress
    the dynamic operation count.  A run that hits the fuel bound cannot
    be judged. *)
let oracle_check name pre_il (p : Program.t) : (unit, reason) result =
  let module I = Rp_exec.Interp in
  match (oracle_run pre_il, oracle_run (Serial.write p)) with
  | I.Limited _, _ | _, I.Limited _ -> Ok ()
  | I.Trapped m1, I.Trapped m2 ->
    if m1 = m2 then Ok ()
    else Error (Changed (Printf.sprintf "trap changed (%S -> %S)" m1 m2))
  | I.Trapped m, I.Completed _ ->
    Error
      (Changed
         (Printf.sprintf "pre-pass IR trapped (%s) but post-pass IR ran" m))
  | I.Completed _, I.Trapped m ->
    Error (Changed ("post-pass IR trapped: " ^ m))
  | I.Completed a, I.Completed b ->
    let ops (r : I.result) = r.I.total.I.ops in
    if a.I.output <> b.I.output then Error (Changed "output changed")
    else if a.I.checksum <> b.I.checksum then Error (Changed "checksum changed")
    else if List.mem name count_reducing && ops b > ops a then
      Error (Count_regressed (ops a, ops b))
    else Ok ()

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

(** Run the middle- and back-end on an already-lowered program.
    [stats] lets {!compile} pre-record front-end timing in the same
    record.

    Every pass runs isolated: the IR is snapshotted first, and a pass that
    raises (or, under [Config.verify_passes]/[Config.oracle], produces IL
    that fails validation or the execution oracle) is rolled back and
    recorded in [degraded] while the remaining pipeline continues. *)
let optimize ?(config = Config.default) ?stats (p : Program.t) : stage_stats =
  let s = match stats with Some s -> s | None -> zero_stage_stats () in
  let verify = config.Config.verify_passes || config.Config.oracle in
  let guarded name f =
    let snap = Program.snapshot p in
    let pre_il = if config.Config.oracle then Some (Serial.write p) else None in
    let degrade reason =
      Program.restore p snap;
      s.degraded <- s.degraded @ [ (name, reason) ]
    in
    let hook = Domain.DLS.get fault_hook in
    match timed s name (fun () -> !hook name; f ()) with
    | () ->
      if verify then begin
        match Validate.check_program p with
        | [] -> (
          match pre_il with
          | None -> s.validated_passes <- s.validated_passes + 1
          | Some il -> (
            match oracle_check name il p with
            | Ok () -> s.validated_passes <- s.validated_passes + 1
            | Error reason -> degrade reason))
        | errs -> degrade (Invalid_il errs)
      end
    | exception Degraded reason -> degrade reason
    | exception Stack_overflow -> degrade (Raised "Stack_overflow")
    | exception Out_of_memory -> raise Out_of_memory
    | exception e -> degrade (Raised (Printexc.to_string e))
  in
  guarded "clean" (fun () -> Rp_cfg.Clean.run_program p);
  (* interprocedural analysis; a blown fixpoint budget degrades this stage
     to the Anone semantics (roll back to the front end's ⊤ sets) *)
  guarded "analysis" (fun () ->
      let budget = config.Config.analysis_budget in
      let ran analysis ~iters ~converged =
        s.analysis_iters <- s.analysis_iters + iters;
        if not converged then begin
          s.converged <- false;
          raise (Degraded (Budget_exhausted analysis))
        end
      in
      match config.Config.analysis with
      | Config.Anone -> ()
      | Config.Amodref ->
        let m = Rp_analysis.Modref.run ?budget p in
        ran "MOD/REF" ~iters:m.Rp_analysis.Modref.iters
          ~converged:m.Rp_analysis.Modref.converged
      | Config.Asteens ->
        let st = Rp_analysis.Steensgaard.run ?budget p in
        ran "Steensgaard"
          ~iters:(Rp_analysis.Steensgaard.iterations st)
          ~converged:(Rp_analysis.Steensgaard.converged st)
      | Config.Apointer ->
        let st = Rp_analysis.Pointsto.run ?budget p in
        ran "points-to" ~iters:st.Rp_analysis.Pointsto.iters
          ~converged:st.Rp_analysis.Pointsto.converged);
  (* register promotion, "in the early phases of optimization" *)
  if config.Config.promote then
    guarded "promotion" (fun () ->
        let pressure_budget =
          if config.Config.throttle then Some config.Config.k else None
        in
        let st =
          Rp_core.Promotion.promote_program
            ~always_store:config.Config.always_store ?pressure_budget p
        in
        s.promoted <- st.Rp_core.Promotion.promoted_tags;
        s.throttled <- st.Rp_core.Promotion.throttled_tags);
  if config.Config.optimize then begin
    guarded "valnum" (fun () ->
        s.vn_rewrites <- Rp_opt.Valnum.run_program p);
    guarded "constprop" (fun () -> s.folded <- Rp_opt.Constprop.run_program p);
    guarded "copyprop" (fun () ->
        ignore (Rp_opt.Copyprop.run_program p : int));
    guarded "clean" (fun () -> Rp_cfg.Clean.run_program p);
    guarded "licm" (fun () -> s.hoisted <- Rp_opt.Licm.run_program p);
    guarded "copyprop" (fun () ->
        ignore (Rp_opt.Copyprop.run_program p : int));
    (* §3.3 depends on LICM having hoisted base addresses *)
    if config.Config.ptr_promote then
      guarded "ptr_promotion" (fun () ->
          let st =
            Rp_core.Pointer_promotion.promote_program
              ~always_store:config.Config.always_store p
          in
          s.ptr_promoted <- st.Rp_core.Pointer_promotion.promoted_refs);
    guarded "pre" (fun () -> s.pre_removed <- Rp_opt.Pre.run_program p);
    guarded "valnum" (fun () ->
        s.vn_rewrites <- s.vn_rewrites + Rp_opt.Valnum.run_program p);
    if config.Config.dse then
      guarded "dse" (fun () -> s.dse_removed <- Rp_opt.Dse.run_program p);
    guarded "dce" (fun () -> s.dce_removed <- Rp_opt.Dce.run_program p);
    guarded "clean" (fun () -> Rp_cfg.Clean.run_program p)
  end
  else if config.Config.ptr_promote then
    guarded "ptr_promotion" (fun () ->
        let st =
          Rp_core.Pointer_promotion.promote_program
            ~always_store:config.Config.always_store p
        in
        s.ptr_promoted <- st.Rp_core.Pointer_promotion.promoted_refs);
  if config.Config.regalloc then
    guarded "regalloc" (fun () ->
        let st = Rp_regalloc.Regalloc.alloc_program ~k:config.Config.k p in
        s.spilled <- st.Rp_regalloc.Regalloc.spilled_regs;
        s.coalesced <- st.Rp_regalloc.Regalloc.coalesced;
        (* allocation can leave self-jump-free empty blocks and dead code *)
        ignore (Rp_opt.Dce.run_program p : int);
        Rp_cfg.Clean.run_program p);
  (* the final check stays a hard failure: rollback restores known-good IL
     after every degraded pass, so reaching this with ill-formed IL means
     the isolation layer itself is broken *)
  timed s "validate" (fun () -> Validate.assert_ok ~ctx:"final" p);
  s.timings <- List.rev s.timings;
  s

(** Compile Mini-C source text under [config]. *)
let compile ?(config = Config.default) (src : string) : Program.t * stage_stats
    =
  let s = zero_stage_stats () in
  let p = timed s "frontend" (fun () -> Rp_irgen.Irgen.compile_source src) in
  let s = optimize ~config ~stats:s p in
  (p, s)

(** Compile and execute; returns the program, pipeline stats, and the
    interpreter result (output, checksum, dynamic counts). *)
let compile_and_run ?(config = Config.default) ?fuel ?should_stop
    (src : string) : Program.t * stage_stats * Rp_exec.Interp.result =
  let (p, s) = compile ~config src in
  let r = Rp_exec.Interp.run ?fuel ?should_stop p in
  (p, s, r)

(* ------------------------------------------------------------------ *)
(* JSON rendering of a compile's statistics                            *)
(* ------------------------------------------------------------------ *)

module Json = Rp_support.Json
module Cas = Rp_support.Cas

(** Total seconds across all recorded passes. *)
let total_time (s : stage_stats) =
  List.fold_left (fun acc (_, t) -> acc +. t) 0. s.timings

(** The stats record as JSON: rewrite counters, fixpoint iterations,
    degradation/validation state, and per-pass timings in milliseconds
    (execution order preserved; re-executed passes are summed). *)
let stats_json (config : Config.t) (s : stage_stats) : Json.t =
  let merged =
    (* single pass: a Hashtbl accumulates per-name sums while [order]
       remembers first-seen position *)
    let sums : (string, float) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (name, t) ->
        match Hashtbl.find_opt sums name with
        | Some cur -> Hashtbl.replace sums name (cur +. t)
        | None ->
          Hashtbl.add sums name t;
          order := name :: !order)
      s.timings;
    List.rev_map (fun n -> (n, Hashtbl.find sums n)) !order
  in
  Json.Obj
    [
      ("config", Json.Str (Fmt.str "%a" Config.pp config));
      ("config_name", Json.Str (Config.name config));
      ( "counters",
        Json.Obj
          [
            ("promoted", Json.Int s.promoted);
            ("throttled", Json.Int s.throttled);
            ("ptr_promoted", Json.Int s.ptr_promoted);
            ("hoisted", Json.Int s.hoisted);
            ("vn_rewrites", Json.Int s.vn_rewrites);
            ("pre_removed", Json.Int s.pre_removed);
            ("folded", Json.Int s.folded);
            ("dce_removed", Json.Int s.dce_removed);
            ("dse_removed", Json.Int s.dse_removed);
            ("spilled", Json.Int s.spilled);
            ("coalesced", Json.Int s.coalesced);
          ] );
      ("analysis_iters", Json.Int s.analysis_iters);
      ("converged", Json.Bool s.converged);
      ( "degraded",
        Json.List
          (List.map
             (fun (pass, reason) ->
               Json.Obj
                 [
                   ("pass", Json.Str pass);
                   ("reason", Json.Str (Fmt.str "%a" pp_reason reason));
                 ])
             s.degraded) );
      ("validated_passes", Json.Int s.validated_passes);
      ( "timings_ms",
        Json.Obj (List.map (fun (n, t) -> (n, Json.Float (1000. *. t))) merged)
      );
      ("total_ms", Json.Float (1000. *. total_time s));
    ]

(* ------------------------------------------------------------------ *)
(* Content-addressed caching                                           *)
(* ------------------------------------------------------------------ *)

(** Version stamp baked into every cache key.  Bump it whenever a pass,
    the serializer, the interpreter's observable counts, or the stats
    schema changes behaviour: old entries then simply stop matching (they
    age out as dead objects) instead of being served stale. *)
let pass_version = "rpcc-pipeline/2"

(** The content-addressed key for compiling [src] under [config]: pass
    version + full configuration fingerprint + source bytes.  Identical
    traffic — and only identical traffic — shares a key. *)
let cache_key ~(config : Config.t) (src : string) : string =
  Cas.key [ pass_version; Config.fingerprint config; src ]

type cached_run = {
  stats : Json.t;  (** the {!stats_json} document of the populating compile *)
  output : string;
  checksum : int;
  ops : int;
  loads : int;
  stores : int;
  cache_hit : bool;
}

let result_json (c : cached_run) =
  Json.Obj
    [
      ("output", Json.Str c.output);
      ("checksum", Json.Int c.checksum);
      ("ops", Json.Int c.ops);
      ("loads", Json.Int c.loads);
      ("stores", Json.Int c.stores);
    ]

(** Decode a [run] cache object.  [None] on any shape mismatch (treated
    as a miss by the caller). *)
let decode_run raw : cached_run option =
  match Json.parse raw with
  | exception Json.Parse_error _ -> None
  | doc -> (
    let field k = Option.bind (Json.member "result" doc) (Json.member k) in
    let int k = match field k with Some (Json.Int i) -> Some i | _ -> None in
    match
      ( Json.member "stats" doc, field "output", int "checksum", int "ops",
        int "loads", int "stores" )
    with
    | Some stats, Some (Json.Str output), Some checksum, Some ops, Some loads,
      Some stores ->
      Some { stats; output; checksum; ops; loads; stores; cache_hit = true }
    | _ -> None)

(** Compile-and-run through a content-addressed store.

    Warm path: when the store holds the [run] object for this (pass
    version, config, source) key — the stats document and the
    interpreter result — return it without touching the pipeline.  The
    stored {e bytes} are re-served, so repeated submissions are
    byte-identical even across a daemon restart.

    Cold path: front end → optimizer → interpreter, then publish the
    [run] object with one atomic put.  A run aborted by [should_stop]
    raises {!Rp_exec.Interp.Resource_limit}, and a trap raises
    {!Rp_exec.Interp.Error}, before anything is cached, so a
    half-finished job can never poison the store. *)
let compile_and_run_cached ?(config = Config.default) ?should_stop ?runner
    ~(cas : Cas.t) (src : string) : cached_run =
  let key = cache_key ~config src in
  match Option.bind (Cas.get cas ~key ~kind:"run") decode_run with
  | Some c -> c
  | None ->
    let p, s = compile ~config src in
    (* [runner] swaps the execution engine for the cold path only — warm
       hits re-serve stored bytes regardless of how they were computed,
       which is sound because every engine returns the interpreter's
       answer by contract *)
    let r =
      match runner with
      | Some run -> run p
      | None -> Rp_exec.Interp.run ?should_stop p
    in
    let t = r.Rp_exec.Interp.total in
    let c =
      {
        stats = stats_json config s;
        output = r.Rp_exec.Interp.output;
        checksum = r.Rp_exec.Interp.checksum;
        ops = t.Rp_exec.Interp.ops;
        loads = t.Rp_exec.Interp.loads;
        stores = t.Rp_exec.Interp.stores;
        cache_hit = false;
      }
    in
    Cas.put cas ~key ~kind:"run"
      (Json.to_string ~indent:false
         (Json.Obj [ ("stats", c.stats); ("result", result_json c) ]));
    c
