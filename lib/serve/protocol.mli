(** The [rpcc-serve/2] wire protocol.

    Line-oriented JSON over a Unix-domain socket, batch-per-connection:
    the client writes one request object per line, shuts down its write
    side, and the daemon replies with one response object per request,
    {e in request order}, then closes.

    Request: [{"schema": "rpcc-serve/2", "id": <any>, "client": <str>,
    "op": "run"|"health", ...}].  [run] takes [src], an optional
    [config] (a {!Rp_driver.Config.named_grid} name, default
    ["modref/with"]) and an optional [mode] ∈ {["interp"], ["native"]},
    default ["interp"]: a [native] run is served through the compiled-C
    backend's degradation ladder and its payload carries an [exec]
    object naming the rung that answered.  [id] and [client] (default
    ["anonymous"]) are echoed verbatim in the response.  A request
    naming any other schema is answered with an [unsupported schema]
    usage error, and any other op with [unknown op NAME].

    Response: [{"schema", "id", "client", "status", ...}] where [status]
    is [ok] (op-specific payload fields follow), [error] (fields [code]
    ∈ {usage, trap, resource, internal} and [message]), or [overloaded]
    (the batch exceeded the daemon's queue bound; resubmit).

    Responses are built deterministically — same request, same cached
    answer ⇒ byte-identical response line.  Deliberately {e no}
    [cached] field: a warm daemon is indistinguishable from a cold one
    except through [health] and latency. *)

module Json = Rp_support.Json

val schema : string
(** ["rpcc-serve/2"]. *)

type exec_mode = Interp | Native

type op =
  | Run of { src : string; config : string; mode : exec_mode }
      (** compile + execute; payload [result] + [stats], and for
          [Native] requests an [exec] object ([mode] actually used +
          [degraded] flag) — the answer itself is mode-independent by
          the backend's equivalence contract *)
  | Health  (** daemon self-report; answered without entering the pool *)

type request = {
  id : Json.t;  (** echoed verbatim; [Null] when absent *)
  client : string;
  op : op;
}

val op_name : op -> string

val parse_request : Json.t -> (request, string) result
(** Validate one request line.  [Error reason] maps to a [usage] error
    response. *)

val config_of_name : string -> Rp_driver.Config.t option
(** Look up a {!Rp_driver.Config.named_grid} name. *)

val op_key : op -> string
(** The content-addressed key the op's answer lives under ([""] for
    [Health] and unknown configs).  The daemon journals it with each
    request record so replay can match work to cache entries. *)

(** {2 Response constructors} *)

val ok : id:Json.t -> client:string -> (string * Json.t) list -> Json.t
val error : id:Json.t -> client:string -> code:string -> string -> Json.t
val overloaded : id:Json.t -> client:string -> Json.t

val response_status : Json.t -> string
(** The [status] field of a response ([""] when absent). *)
