(** The [rpcc-serve/2] wire protocol.  See protocol.mli. *)

module Json = Rp_support.Json

let schema = "rpcc-serve/2"

type exec_mode = Interp | Native

let mode_name = function Interp -> "interp" | Native -> "native"

type op =
  | Run of { src : string; config : string; mode : exec_mode }
  | Compile of { src : string; config : string }
  | Stats of { src : string; config : string }
  | Fuzz of { seed : int; trials : int }
  | Health

type request = { id : Json.t; client : string; op : op }

let op_name = function
  | Run _ -> "run"
  | Compile _ -> "compile"
  | Stats _ -> "stats"
  | Fuzz _ -> "fuzz"
  | Health -> "health"

let default_config = "modref/with"

let config_of_name name = List.assoc_opt name Rp_driver.Config.named_grid

let fuzz_key ~seed ~trials =
  Rp_support.Cas.key
    [ Rp_driver.Pipeline.pass_version; "fuzz"; string_of_int seed;
      string_of_int trials ]

(* [Run]'s mode is deliberately absent from the key: both modes compute
   the same answer by contract, so they share result-cache entries. *)
let op_key (op : op) =
  match op with
  | Run { src; config; mode = _ }
  | Compile { src; config }
  | Stats { src; config } -> (
    match config_of_name config with
    | Some c -> Rp_driver.Pipeline.cache_key ~config:c src
    | None -> "")
  | Fuzz { seed; trials } -> fuzz_key ~seed ~trials
  | Health -> ""

let parse_request (doc : Json.t) : (request, string) result =
  let str k = match Json.member k doc with Some (Json.Str s) -> Some s | _ -> None in
  let int k = match Json.member k doc with Some (Json.Int i) -> Some i | _ -> None in
  let id = Option.value (Json.member "id" doc) ~default:Json.Null in
  let client = Option.value (str "client") ~default:"anonymous" in
  let src_op mk =
    match str "src" with
    | None -> Error "missing src"
    | Some src ->
      let config = Option.value (str "config") ~default:default_config in
      Ok { id; client; op = mk ~src ~config }
  in
  match Json.member "schema" doc with
  | Some (Json.Str s) when s <> schema ->
    Error (Printf.sprintf "unsupported schema %s (want %s)" s schema)
  | _ -> (
    match str "op" with
    | None -> Error "missing op"
    | Some "run" -> (
      match Json.member "mode" doc with
      | None | Some (Json.Str "interp") ->
        src_op (fun ~src ~config -> Run { src; config; mode = Interp })
      | Some (Json.Str "native") ->
        src_op (fun ~src ~config -> Run { src; config; mode = Native })
      | Some (Json.Str other) ->
        Error (Printf.sprintf "unknown mode %s (want interp|native)" other)
      | Some _ -> Error "mode must be a string")
    | Some "compile" -> src_op (fun ~src ~config -> Compile { src; config })
    | Some "stats" -> src_op (fun ~src ~config -> Stats { src; config })
    | Some "fuzz" -> (
      match int "seed" with
      | None -> Error "missing seed"
      | Some seed ->
        let trials = Option.value (int "trials") ~default:1 in
        if trials < 1 then Error "trials must be >= 1"
        else Ok { id; client; op = Fuzz { seed; trials } })
    | Some "health" -> Ok { id; client; op = Health }
    | Some other -> Error ("unknown op " ^ other))

(* Field order is fixed so identical logical responses are identical
   bytes. *)
let base ~id ~client ~status rest =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("id", id);
       ("client", Json.Str client);
       ("status", Json.Str status);
     ]
    @ rest)

let ok ~id ~client payload = base ~id ~client ~status:"ok" payload

let error ~id ~client ~code msg =
  base ~id ~client ~status:"error"
    [ ("code", Json.Str code); ("message", Json.Str msg) ]

let overloaded ~id ~client =
  base ~id ~client ~status:"overloaded"
    [ ("message", Json.Str "queue bound exceeded; resubmit") ]

let response_status doc =
  match Json.member "status" doc with Some (Json.Str s) -> s | _ -> ""
