(** The [rpcc-serve/2] wire protocol.  See protocol.mli. *)

module Json = Rp_support.Json

let schema = "rpcc-serve/2"

type exec_mode = Interp | Native

type op =
  | Run of { src : string; config : string; mode : exec_mode }
  | Health

type request = { id : Json.t; client : string; op : op }

let op_name = function Run _ -> "run" | Health -> "health"

let default_config = "modref/with"

let config_of_name name = List.assoc_opt name Rp_driver.Config.named_grid

(* [Run]'s mode is deliberately absent from the key: both modes compute
   the same answer by contract, so they share result-cache entries. *)
let op_key (op : op) =
  match op with
  | Run { src; config; mode = _ } -> (
    match config_of_name config with
    | Some c -> Rp_driver.Pipeline.cache_key ~config:c src
    | None -> "")
  | Health -> ""

let parse_request (doc : Json.t) : (request, string) result =
  let str k = match Json.member k doc with Some (Json.Str s) -> Some s | _ -> None in
  let id = Option.value (Json.member "id" doc) ~default:Json.Null in
  let client = Option.value (str "client") ~default:"anonymous" in
  let run mode =
    match str "src" with
    | None -> Error "missing src"
    | Some src ->
      let config = Option.value (str "config") ~default:default_config in
      Ok { id; client; op = Run { src; config; mode } }
  in
  match Json.member "schema" doc with
  | Some (Json.Str s) when s <> schema ->
    Error (Printf.sprintf "unsupported schema %s (want %s)" s schema)
  | _ -> (
    match str "op" with
    | None -> Error "missing op"
    | Some "run" -> (
      match Json.member "mode" doc with
      | None | Some (Json.Str "interp") -> run Interp
      | Some (Json.Str "native") -> run Native
      | Some (Json.Str other) ->
        Error (Printf.sprintf "unknown mode %s (want interp|native)" other)
      | Some _ -> Error "mode must be a string")
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
