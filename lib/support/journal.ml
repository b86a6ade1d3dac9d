(** Append-only fsync-on-record line-JSON journal with per-record CRC.
    See journal.mli. *)

type writer = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  mutable closed : bool;
}

let read_all path = In_channel.with_open_bin path In_channel.input_all

let create path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  (* a process killed mid-record leaves a last line without its newline:
     cut it off, or the next record would be glued onto it *)
  (try
     let s = read_all path in
     let whole =
       match String.rindex_opt s '\n' with Some i -> i + 1 | None -> 0
     in
     if whole < String.length s then Unix.ftruncate fd whole
   with e ->
     Unix.close fd;
     raise e);
  { fd; lock = Mutex.create (); closed = false }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

(* A record line wraps the payload in {"crc32": "...", "r": payload},
   with the CRC computed over the payload's own compact serialization —
   exactly the bytes between the wrapper's ["r":] and the closing brace,
   so the loader can re-derive them from the parse. *)
let wrap j =
  let payload = Json.to_string ~indent:false j in
  Printf.sprintf "{\"crc32\":\"%s\",\"r\":%s}\n"
    (Crc32.to_hex (Crc32.string payload))
    payload

let record w j =
  let line = wrap j in
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      if w.closed then invalid_arg "Journal.record: writer is closed";
      write_all w.fd line;
      Unix.fsync w.fd)

let close w =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      if not w.closed then begin
        w.closed <- true;
        Unix.close w.fd
      end)

(* Classify one parsed line: a wrapper is unwrapped after its CRC checks
   out; anything else is corrupt. *)
let unwrap = function
  | Json.Obj [ ("crc32", Json.Str h); ("r", payload) ] -> (
    let bytes = Json.to_string ~indent:false payload in
    match Crc32.of_hex h with
    | Some c when c = Crc32.string bytes -> Ok payload
    | _ -> Error "crc32 mismatch")
  | _ -> Error "not a CRC-wrapped record"

let load ?(on_skip = fun ~line:_ _ -> ()) path =
  if not (Sys.file_exists path) then []
  else begin
    let s = read_all path in
    let lines =
      List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)
    in
    let n = List.length lines in
    List.mapi (fun i l -> (i, l)) lines
    |> List.filter_map (fun (i, l) ->
           match Json.parse l with
           | exception Json.Parse_error _ ->
             (* a torn final line is the normal crash signature and is
                dropped silently; an unparseable interior line is
                corruption and is counted *)
             if i < n - 1 then on_skip ~line:(i + 1) "unparseable record";
             None
           | j -> (
             match unwrap j with
             | Ok payload -> Some payload
             | Error reason ->
               on_skip ~line:(i + 1) reason;
               None))
  end
