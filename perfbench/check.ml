(** Answer checks against references the optimizer did not produce:
    each suite program's output checksum under the unoptimized [O0]
    configuration, committed in [o0_checksums.txt]; and, for [serve],
    the [O0] answer computed in-process for each generated program. *)

module Json = Rp_support.Json

(** [name<TAB>checksum] lines, in suite order. *)
let load_refs path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
      match String.split_on_char '\t' line with
      | [ name; ck ] -> go ((name, int_of_string ck) :: acc)
      | _ -> failwith ("malformed reference line: " ^ line))
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let grid_configs = List.map fst Rp_driver.Config.paper_grid

type tally = {
  attempted : int;
  failed : int;
  ops : int;
  loads : int;
  stores : int;
}

(** Tally one grid campaign's counts document.  A cell that is missing,
    quarantined, or carries another checksum than its program's [O0]
    reference is a failed operation; so is each cell the document says
    fell to the interpreter rung ([exec.degraded_native]).  Counts are
    summed over the cells that passed. *)
let grid ~refs doc =
  let programs = Option.value (Json.member "programs" doc) ~default:Json.Null in
  let t =
    List.fold_left
      (fun t (name, ref_ck) ->
        let row = Json.member name programs in
        List.fold_left
          (fun t cname ->
            let t = { t with attempted = t.attempted + 1 } in
            let cell = Option.bind row (Json.member cname) in
            let int k = Option.bind cell (Json.member k) in
            match (int "checksum", int "ops", int "loads", int "stores") with
            | Some (Json.Int ck), Some (Json.Int o), Some (Json.Int l),
              Some (Json.Int s)
              when ck = ref_ck ->
              { t with ops = t.ops + o; loads = t.loads + l;
                stores = t.stores + s }
            | _ -> { t with failed = t.failed + 1 })
          t grid_configs)
      { attempted = 0; failed = 0; ops = 0; loads = 0; stores = 0 }
      refs
  in
  let degraded =
    match Option.bind (Json.member "exec" doc) (Json.member "degraded_native") with
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  { t with failed = min t.attempted (t.failed + degraded) }

(** Every cell of a campaign whose document could not be read failed. *)
let all_failed ~refs =
  let n = List.length refs * List.length grid_configs in
  { attempted = n; failed = n; ops = 0; loads = 0; stores = 0 }

(** A [serve] response is correct when it is [ok] and its result carries
    the reference output and checksum. *)
let answer_ok ~output ~checksum resp =
  Rp_serve.Protocol.response_status resp = "ok"
  &&
  match Json.member "result" resp with
  | Some r ->
    Json.member "output" r = Some (Json.Str output)
    && Json.member "checksum" r = Some (Json.Int checksum)
  | None -> false
