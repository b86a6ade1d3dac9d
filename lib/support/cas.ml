(** Crash-tolerant content-addressed store.  See cas.mli. *)

type t = {
  root : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  puts : int Atomic.t;
  quarantined : int Atomic.t;
  uniq : int Atomic.t;  (** per-process temp/quarantine name counter *)
}

let magic = "rpcc-cas/1"

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let objects_dir t = Filename.concat t.root "objects"
let tmp_dir t = Filename.concat t.root "tmp"
let quarantine_dir t = Filename.concat t.root "quarantine"

let open_ root =
  let t =
    { root; hits = Atomic.make 0; misses = Atomic.make 0;
      puts = Atomic.make 0; quarantined = Atomic.make 0;
      uniq = Atomic.make 0 }
  in
  mkdir_p (objects_dir t);
  mkdir_p (tmp_dir t);
  mkdir_p (quarantine_dir t);
  (* reap temp files orphaned by a crash mid-[put]: they were never
     renamed into place, so nothing references them.  Several processes
     (a daemon and its restarted successor, concurrent bench runs on one
     [$TMPDIR] binary store) may share one store, so a temp file whose
     embedded writer pid is still alive is an in-flight put, not an
     orphan — and must survive another process opening the store. *)
  let owner_alive f =
    (* temp names are "<key>.<kind>.<pid>.<uniq>" (see [put]) *)
    match String.split_on_char '.' f with
    | [ _; _; pid; _ ] -> (
      match int_of_string_opt pid with
      | Some pid when pid <> Unix.getpid () -> (
        match Unix.kill pid 0 with
        | () -> true
        | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
        | exception Unix.Unix_error _ -> false)
      | _ -> false)
    | _ -> false
  in
  Array.iter
    (fun f ->
      if not (owner_alive f) then
        try Sys.remove (Filename.concat (tmp_dir t) f) with Sys_error _ -> ())
    (try Sys.readdir (tmp_dir t) with Sys_error _ -> [||]);
  t

let root t = t.root

(* Length-delimited concatenation, then MD5 (stdlib Digest): parts can
   contain arbitrary bytes and cannot collide by concatenation. *)
let key parts =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun p -> string_of_int (String.length p) ^ ":" ^ p)
             parts)))

let check_kind kind =
  if
    kind = ""
    || not
         (String.for_all
            (function 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
            kind)
  then invalid_arg ("Cas: bad kind " ^ kind)

let entry_path t ~key:k ~kind =
  let shard =
    Filename.concat (objects_dir t) (String.sub (k ^ "00") 0 2)
  in
  (shard, Filename.concat shard (k ^ "." ^ kind))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let put t ~key:k ~kind payload =
  check_kind kind;
  let (shard, path) = entry_path t ~key:k ~kind in
  mkdir_p shard;
  let tmp =
    Filename.concat (tmp_dir t)
      (Printf.sprintf "%s.%s.%d.%d" k kind (Unix.getpid ())
         (Atomic.fetch_and_add t.uniq 1))
  in
  let header =
    Printf.sprintf "%s %s %s %d\n" magic kind
      (Crc32.to_hex (Crc32.string payload))
      (String.length payload)
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let write_all s =
        let b = Bytes.unsafe_of_string s in
        let n = Bytes.length b in
        let rec go off =
          if off < n then go (off + Unix.write fd b off (n - off))
        in
        go 0
      in
      write_all header;
      write_all payload;
      Unix.fsync fd);
  Unix.rename tmp path;
  Atomic.incr t.puts

(** Parse and verify an object file's bytes; [Error reason] on any
    header/CRC/length mismatch. *)
let verify ~kind raw =
  match String.index_opt raw '\n' with
  | None -> Error "no header"
  | Some nl -> (
    let header = String.sub raw 0 nl in
    let payload = String.sub raw (nl + 1) (String.length raw - nl - 1) in
    match String.split_on_char ' ' header with
    | [ m; k; crc_hex; len ] ->
      if m <> magic then Error "bad magic"
      else if k <> kind then Error "kind mismatch"
      else if int_of_string_opt len <> Some (String.length payload) then
        Error "length mismatch"
      else (
        match Crc32.of_hex crc_hex with
        | Some c when c = Crc32.string payload -> Ok payload
        | _ -> Error "crc mismatch")
    | _ -> Error "malformed header")

let quarantine t path =
  let dest =
    Filename.concat (quarantine_dir t)
      (Printf.sprintf "%s.%d.%d" (Filename.basename path) (Unix.getpid ())
         (Atomic.fetch_and_add t.uniq 1))
  in
  (try Unix.rename path dest
   with Unix.Unix_error _ -> (try Sys.remove path with Sys_error _ -> ()));
  Atomic.incr t.quarantined

let get t ~key:k ~kind =
  check_kind kind;
  let (_, path) = entry_path t ~key:k ~kind in
  match read_file path with
  | exception Sys_error _ ->
    Atomic.incr t.misses;
    None
  | raw -> (
    match verify ~kind raw with
    | Ok payload ->
      Atomic.incr t.hits;
      Some payload
    | Error _ ->
      quarantine t path;
      Atomic.incr t.misses;
      None)

type stats = { hits : int; misses : int; puts : int; quarantined : int }

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    puts = Atomic.get t.puts;
    quarantined = Atomic.get t.quarantined;
  }

let stats_json t =
  let s = stats t in
  Json.Obj
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("puts", Json.Int s.puts);
      ("quarantined", Json.Int s.quarantined);
    ]
