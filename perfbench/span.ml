(** In-memory spans around calls into the program's layers.

    A span has a name (the public function called), the cell or request
    it belongs to, a start and an end on the monotonic clock, and its
    parent span.  Spans are kept in memory and written out when the run
    ends, so recording one costs two clock reads and a list cons. *)

type t = {
  id : int;
  name : string;
  owner : string;  (** grid cell ("program/config") or request id *)
  parent : int;  (** [-1] for a root span *)
  start_ns : int;
  stop_ns : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ids are unique across recorders, so recorders filled on several
   domains can be merged *)
let next_id = Atomic.make 0

(** One recorder per domain: its stack gives each span its parent. *)
type recorder = { mutable spans : t list; mutable stack : int list }

let recorder () = { spans = []; stack = [] }

let record r ~name ~owner f =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  r.stack <- id :: r.stack;
  let start_ns = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop_ns = now_ns () in
      r.stack <- List.tl r.stack;
      r.spans <- { id; name; owner; parent; start_ns; stop_ns } :: r.spans)
    f

let duration s = s.stop_ns - s.start_ns

(** Total length covered by the intervals, counting overlaps once. *)
let union_ns intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc + (b - a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, max cb b)) rest
      | Some (ca, cb) -> go (acc + (cb - ca)) (Some (a, b)) rest)
  in
  go 0 None sorted

(** A span's self time: its duration minus the part of its interval that
    its children cover. *)
let self_ns span ~children =
  let clip c = (max span.start_ns c.start_ns, min span.stop_ns c.stop_ns) in
  let covered =
    union_ns (List.filter (fun (a, b) -> b > a) (List.map clip children))
  in
  duration span - covered

(** Self time of every span, keyed by span id. *)
let self_times spans =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          (s :: Option.value (Hashtbl.find_opt kids s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let children = Option.value (Hashtbl.find_opt kids s.id) ~default:[] in
      (s, self_ns s ~children))
    spans

(** Sum of self time, in ms, of the spans with this name. *)
let self_ms selfs name =
  List.fold_left
    (fun acc (s, ns) -> if s.name = name then acc + ns else acc)
    0 selfs
  |> fun ns -> float_of_int ns /. 1e6

let to_json s =
  Rp_support.Json.(
    Obj
      [
        ("id", Int s.id);
        ("name", Str s.name);
        ("owner", Str s.owner);
        ("parent", Int s.parent);
        ("start_ns", Int s.start_ns);
        ("end_ns", Int s.stop_ns);
      ])

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Rp_support.Json.to_string ~indent:false (to_json s));
      output_char oc '\n')
    (List.sort (fun a b -> compare a.id b.id) spans);
  close_out oc
