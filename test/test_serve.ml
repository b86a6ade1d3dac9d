(** Tests for the [rpcc serve] subsystem: the content-addressed store,
    the cached pipeline, the wire protocol, and the daemon end-to-end
    (SIGKILL warm restart, backpressure, graceful drain). *)

module Json = Rp_support.Json
module Cas = Rp_support.Cas
module Config = Rp_driver.Config
module Pipeline = Rp_driver.Pipeline
module Protocol = Rp_serve.Protocol
module Client = Rp_serve.Client

let dir_seq = ref 0

(** A fresh scratch directory under the system temp dir. *)
let fresh_dir name =
  incr dir_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rp-serve-%s-%d-%d" name (Unix.getpid ()) !dir_seq)
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(** Descend an object path; fails the test if any step is missing. *)
let member_path path j =
  List.fold_left
    (fun acc k ->
      match Json.member k acc with
      | Some v -> v
      | None -> Alcotest.fail ("missing field " ^ k))
    j path

let int_at path j =
  match member_path path j with
  | Json.Int n -> n
  | _ -> Alcotest.fail ("not an int: " ^ String.concat "." path)

(* ------------------------------------------------------------------ *)
(* Content-addressed store                                             *)
(* ------------------------------------------------------------------ *)

(** The on-disk path of an object, mirroring the store layout. *)
let object_path root ~key ~kind =
  Filename.concat
    (Filename.concat (Filename.concat root "objects") (String.sub key 0 2))
    (key ^ "." ^ kind)

let cas_tests =
  [
    Util.tc "cas: put/get round-trip, hits and misses counted" (fun () ->
        let cas = Cas.open_ (fresh_dir "cas-rt") in
        let key = Cas.key [ "some"; "parts" ] in
        Cas.put cas ~key ~kind:"result" "the payload\nbytes";
        Util.check Alcotest.bool "verified read" true
          (Cas.get cas ~key ~kind:"result" = Some "the payload\nbytes");
        Util.check Alcotest.bool "wrong kind is a miss" true
          (Cas.get cas ~key ~kind:"stats" = None);
        let s = Cas.stats cas in
        Util.check Alcotest.int "hits" 1 s.Cas.hits;
        Util.check Alcotest.int "misses" 1 s.Cas.misses;
        Util.check Alcotest.int "puts" 1 s.Cas.puts;
        Util.check Alcotest.int "quarantined" 0 s.Cas.quarantined;
        match Cas.stats_json cas with
        | Json.Obj kvs ->
          Util.check
            Alcotest.(list string)
            "stats json keys"
            [ "hits"; "misses"; "puts"; "quarantined" ]
            (List.map fst kvs)
        | _ -> Alcotest.fail "stats_json must be an object");
    Util.tc "cas: keys are length-delimited and order-sensitive" (fun () ->
        Util.check Alcotest.bool "concatenation collision avoided" false
          (Cas.key [ "ab" ] = Cas.key [ "a"; "b" ]);
        Util.check Alcotest.bool "order matters" false
          (Cas.key [ "a"; "b" ] = Cas.key [ "b"; "a" ]);
        Util.check Alcotest.bool "deterministic" true
          (Cas.key [ "a"; "b" ] = Cas.key [ "a"; "b" ]));
    Util.tc "cas: poisoned entry quarantined, never served, recomputable"
      (fun () ->
        let root = fresh_dir "cas-poison" in
        let cas = Cas.open_ root in
        let key = Cas.key [ "poison"; "me" ] in
        Cas.put cas ~key ~kind:"result" "precious correct bytes";
        (* flip one payload byte on disk, leaving the header's CRC stale *)
        let path = object_path root ~key ~kind:"result" in
        let raw = read_file path in
        let b = Bytes.of_string raw in
        let last = Bytes.length b - 1 in
        Bytes.set b last (if Bytes.get b last = 'x' then 'y' else 'x');
        write_file path (Bytes.to_string b);
        (* a corrupt entry must read as a miss, not a wrong answer *)
        Util.check Alcotest.bool "corrupt entry is a miss" true
          (Cas.get cas ~key ~kind:"result" = None);
        Util.check Alcotest.int "quarantined counted" 1
          (Cas.stats cas).Cas.quarantined;
        Util.check Alcotest.bool "moved aside, not deleted" true
          (Array.length (Sys.readdir (Filename.concat root "quarantine")) > 0);
        Util.check Alcotest.bool "object gone from store" false
          (Sys.file_exists path);
        (* the caller recomputes and re-populates *)
        Cas.put cas ~key ~kind:"result" "precious correct bytes";
        Util.check Alcotest.bool "recomputed entry serves" true
          (Cas.get cas ~key ~kind:"result" = Some "precious correct bytes"));
    Util.tc "cas: orphan temp files reaped on open" (fun () ->
        let root = fresh_dir "cas-tmp" in
        ignore (Cas.open_ root : Cas.t);
        (* a crash mid-put leaves an unrenamed temp file behind *)
        write_file (Filename.concat (Filename.concat root "tmp") "orphan")
          "half-written";
        let cas2 = Cas.open_ root in
        Util.check Alcotest.int "tmp dir emptied" 0
          (Array.length (Sys.readdir (Filename.concat root "tmp")));
        Util.check Alcotest.bool "store still works" true
          (let key = Cas.key [ "after"; "reap" ] in
           Cas.put cas2 ~key ~kind:"result" "v";
           Cas.get cas2 ~key ~kind:"result" = Some "v"));
    Util.tc "cas: two processes racing the same binary key never corrupt it"
      (fun () ->
        (* processes share one store — a daemon and its restarted
           successor, concurrent bench runs on one binary store — and
           two of them compiling the same translation unit both put the
           identical native binary under the identical key.
           tmp+fsync+rename must make every interleaving safe — a reader
           sees a complete object (either writer's), never a torn one *)
        let root = fresh_dir "cas-race" in
        let key = Cas.key [ "racing"; "binary" ] in
        (* binary-shaped payload: nulls, newlines, high bytes *)
        let payload = String.init 4096 (fun i -> Char.chr (i * 7 land 0xff)) in
        let writer () =
          match Unix.fork () with
          | 0 ->
            (* child: fresh handle, hammer the same key *)
            let cas = Cas.open_ root in
            for _ = 1 to 50 do
              Cas.put cas ~key ~kind:"native-bin" payload
            done;
            Unix._exit 0
          | pid -> pid
        in
        let p1 = writer () in
        let p2 = writer () in
        let reader = Cas.open_ root in
        (* read concurrently with the race: every successful get must be
           the full payload *)
        for _ = 1 to 200 do
          match Cas.get reader ~key ~kind:"native-bin" with
          | None -> ()  (* not yet written: a miss, never a torn read *)
          | Some got ->
            if got <> payload then
              Alcotest.fail "torn or corrupt payload served mid-race"
        done;
        ignore (Unix.waitpid [] p1);
        ignore (Unix.waitpid [] p2);
        Util.check Alcotest.bool "final read is the payload" true
          (Cas.get reader ~key ~kind:"native-bin" = Some payload);
        Util.check Alcotest.int "nothing quarantined by the race" 0
          (Cas.stats reader).Cas.quarantined;
        Util.check Alcotest.int "no tmp litter once both writers exit" 0
          (Array.length (Sys.readdir (Filename.concat root "tmp"))));
    Util.tc "cas: orphan reaping spares a live writer's in-flight temp"
      (fun () ->
        let root = fresh_dir "cas-live-tmp" in
        ignore (Cas.open_ root : Cas.t);
        (* a sibling process (here: a sleeping child) mid-[put]: its
           temp carries its pid and it is very much alive *)
        let live_pid =
          Unix.create_process "sleep" [| "sleep"; "30" |] Unix.stdin
            Unix.stdout Unix.stderr
        in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill live_pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] live_pid)
            with Unix.Unix_error _ -> ())
          (fun () ->
            let tmp = Filename.concat root "tmp" in
            let live_name = Printf.sprintf "somekey.native-bin.%d.0" live_pid in
            write_file (Filename.concat tmp live_name) "in-flight bytes";
            (* a dead sibling's temp: fork a child that exits at once *)
            let dead_pid =
              match Unix.fork () with 0 -> Unix._exit 0 | pid -> pid
            in
            ignore (Unix.waitpid [] dead_pid);
            let dead_name = Printf.sprintf "somekey.native-bin.%d.1" dead_pid in
            write_file (Filename.concat tmp dead_name) "crashed mid-put";
            ignore (Cas.open_ root : Cas.t);
            let left = Array.to_list (Sys.readdir tmp) in
            Util.check Alcotest.bool "live writer's temp survives" true
              (List.mem live_name left);
            Util.check Alcotest.bool "dead writer's temp reaped" false
              (List.mem dead_name left);
            (* once the writer is gone, its temp is an orphan like any
               other and the next open reclaims it *)
            (try Unix.kill live_pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] live_pid);
            ignore (Cas.open_ root : Cas.t);
            Util.check Alcotest.bool "reaped once the writer died" false
              (List.mem live_name (Array.to_list (Sys.readdir tmp)))));
  ]

(* ------------------------------------------------------------------ *)
(* Cached pipeline: warm hits are byte-identical across the grid       *)
(* ------------------------------------------------------------------ *)

let cache_src =
  "int g; int main() { int i; int s; s = 0; for (i = 0; i < 100; i++) { s \
   = s + i; g = s; } print_int(s + g); return 0; }"

(** A program of ~60,000 operations: long enough to reach a
    [should_stop] poll. *)
let long_src =
  "int g; int main() { int i; for (i = 0; i < 10000; i++) g = g + i; \
   print_int(g); return 0; }"

(** The names of every object in a store. *)
let store_objects root =
  let objects = Filename.concat root "objects" in
  Array.to_list (Sys.readdir objects)
  |> List.concat_map (fun shard ->
         Array.to_list (Sys.readdir (Filename.concat objects shard)))

let cache_tests =
  [
    Util.tc "cache: cold populates, warm hit byte-identical, all configs"
      (fun () ->
        let cas = Cas.open_ (fresh_dir "cache-grid") in
        List.iter
          (fun (name, config) ->
            let _, _, plain = Pipeline.compile_and_run ~config cache_src in
            let s0 = Cas.stats cas in
            let cold = Pipeline.compile_and_run_cached ~config ~cas cache_src in
            let s1 = Cas.stats cas in
            let warm = Pipeline.compile_and_run_cached ~config ~cas cache_src in
            let s2 = Cas.stats cas in
            (* one object per key: a cold call is one miss and one put, a
               warm one a single hit *)
            Util.check
              Alcotest.(list int)
              (name ^ ": cold hits/misses/puts")
              [ 0; 1; 1 ]
              [ s1.Cas.hits - s0.Cas.hits; s1.Cas.misses - s0.Cas.misses;
                s1.Cas.puts - s0.Cas.puts ];
            Util.check
              Alcotest.(list int)
              (name ^ ": warm hits/misses/puts")
              [ 1; 0; 0 ]
              [ s2.Cas.hits - s1.Cas.hits; s2.Cas.misses - s1.Cas.misses;
                s2.Cas.puts - s1.Cas.puts ];
            Util.check Alcotest.bool (name ^ ": cold is a miss") false
              cold.Pipeline.cache_hit;
            Util.check Alcotest.bool (name ^ ": warm is a hit") true
              warm.Pipeline.cache_hit;
            (* cached answers agree with the uncached pipeline *)
            Util.check Alcotest.string (name ^ ": output") plain.Rp_exec.Interp.output
              cold.Pipeline.output;
            Util.check Alcotest.int (name ^ ": checksum")
              plain.Rp_exec.Interp.checksum cold.Pipeline.checksum;
            Util.check Alcotest.int (name ^ ": ops")
              plain.Rp_exec.Interp.total.Rp_exec.Interp.ops cold.Pipeline.ops;
            Util.check Alcotest.int (name ^ ": loads")
              plain.Rp_exec.Interp.total.Rp_exec.Interp.loads
              cold.Pipeline.loads;
            Util.check Alcotest.int (name ^ ": stores")
              plain.Rp_exec.Interp.total.Rp_exec.Interp.stores
              cold.Pipeline.stores;
            (* warm re-serve is byte-identical to the populating compile *)
            Util.check Alcotest.string (name ^ ": stats bytes")
              (Json.to_string cold.Pipeline.stats)
              (Json.to_string warm.Pipeline.stats);
            Util.check Alcotest.string (name ^ ": output bytes")
              cold.Pipeline.output warm.Pipeline.output;
            Util.check Alcotest.bool (name ^ ": counts identical") true
              (cold.Pipeline.checksum = warm.Pipeline.checksum
              && cold.Pipeline.ops = warm.Pipeline.ops
              && cold.Pipeline.loads = warm.Pipeline.loads
              && cold.Pipeline.stores = warm.Pipeline.stores))
          Config.named_grid;
        let s = Cas.stats cas in
        Util.check Alcotest.bool "every warm pass hit" true
          (s.Cas.hits > 0 && s.Cas.quarantined = 0));
    Util.tc "cache: a trapped or stopped run caches nothing" (fun () ->
        let root = fresh_dir "cache-abort" in
        let cas = Cas.open_ root in
        let nothing_cached what =
          Util.check Alcotest.int (what ^ ": no put") 0
            (Cas.stats cas).Cas.puts;
          Util.check
            Alcotest.(list string)
            (what ^ ": empty store") [] (store_objects root)
        in
        let _, trap_src, trap_msg = List.hd Util.memory_traps in
        let trap what =
          match Pipeline.compile_and_run_cached ~cas trap_src with
          | _ -> Alcotest.fail (what ^ ": the program must trap")
          | exception Rp_exec.Interp.Error m ->
            Util.check Alcotest.string (what ^ ": trap message") trap_msg m;
            nothing_cached what
        in
        trap "trap";
        (* the next call recomputes: it misses again and traps again *)
        trap "trap again";
        Util.check Alcotest.int "both trapping calls missed" 2
          (Cas.stats cas).Cas.misses;
        (match
           Pipeline.compile_and_run_cached ~should_stop:(fun () -> true) ~cas
             long_src
         with
        | _ -> Alcotest.fail "a stopped run must raise"
        | exception Rp_exec.Interp.Resource_limit m ->
          Util.check Alcotest.bool "an external stop" true
            (Rp_exec.Interp.is_external_stop m));
        nothing_cached "stop";
        let c = Pipeline.compile_and_run_cached ~cas long_src in
        Util.check Alcotest.bool "the stopped key recomputes" false
          c.Pipeline.cache_hit;
        Util.check Alcotest.string "its answer" "49995000\n" c.Pipeline.output;
        Util.check Alcotest.int "then puts once" 1 (Cas.stats cas).Cas.puts);
    Util.tc "cache: a corrupt run object is quarantined and recomputed"
      (fun () ->
        let root = fresh_dir "cache-flip" in
        let cas = Cas.open_ root in
        let cold = Pipeline.compile_and_run_cached ~cas cache_src in
        (* flip the object's last payload byte under its stale CRC *)
        let path =
          object_path root
            ~key:(Pipeline.cache_key ~config:Config.default cache_src)
            ~kind:"run"
        in
        let b = Bytes.of_string (read_file path) in
        let last = Bytes.length b - 1 in
        Bytes.set b last (if Bytes.get b last = '}' then ']' else '}');
        write_file path (Bytes.to_string b);
        let again = Pipeline.compile_and_run_cached ~cas cache_src in
        Util.check Alcotest.int "quarantined" 1 (Cas.stats cas).Cas.quarantined;
        Util.check Alcotest.bool "recomputed, not served" false
          again.Pipeline.cache_hit;
        Util.check Alcotest.string "same output" cold.Pipeline.output
          again.Pipeline.output;
        Util.check
          Alcotest.(list int)
          "same checksum and counts"
          [ cold.Pipeline.checksum; cold.Pipeline.ops; cold.Pipeline.loads;
            cold.Pipeline.stores ]
          [ again.Pipeline.checksum; again.Pipeline.ops; again.Pipeline.loads;
            again.Pipeline.stores ];
        Util.check Alcotest.bool "the recomputed object serves" true
          (Pipeline.compile_and_run_cached ~cas cache_src).Pipeline.cache_hit);
    Util.tc "cache: distinct configs never share a key" (fun () ->
        let keys =
          List.map
            (fun (_, config) -> Pipeline.cache_key ~config cache_src)
            Config.named_grid
        in
        Util.check Alcotest.int "all keys distinct"
          (List.length keys)
          (List.length (List.sort_uniq compare keys)));
  ]

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let protocol_tests =
  [
    Util.tc "protocol: request parse applies defaults" (fun () ->
        let j =
          Json.Obj
            [
              ("schema", Json.Str Protocol.schema);
              ("op", Json.Str "run");
              ("src", Json.Str "int main() { return 0; }");
            ]
        in
        match Protocol.parse_request j with
        | Ok r ->
          Util.check Alcotest.string "default client" "anonymous" r.Protocol.client;
          Util.check Alcotest.bool "absent id is Null" true
            (r.Protocol.id = Json.Null);
          (match r.Protocol.op with
          | Protocol.Run { config; _ } ->
            Util.check Alcotest.string "default config" "modref/with" config
          | _ -> Alcotest.fail "expected Run")
        | Error e -> Alcotest.fail ("parse failed: " ^ e));
    Util.tc "protocol: schema mismatch and unknown op are usage errors"
      (fun () ->
        let bad_schema =
          Json.Obj [ ("schema", Json.Str "bogus/9"); ("op", Json.Str "run") ]
        in
        let bad_op =
          Json.Obj
            [ ("schema", Json.Str Protocol.schema); ("op", Json.Str "dance") ]
        in
        Util.check Alcotest.bool "schema rejected" true
          (Result.is_error (Protocol.parse_request bad_schema));
        Util.check Alcotest.bool "op rejected" true
          (Result.is_error (Protocol.parse_request bad_op));
        (* the daemon serves run and health only *)
        List.iter
          (fun op ->
            let r =
              Json.Obj
                [
                  ("schema", Json.Str Protocol.schema);
                  ("op", Json.Str op);
                  ("src", Json.Str "int main() { return 0; }");
                  ("seed", Json.Int 1);
                ]
            in
            Util.check
              Alcotest.(result reject string)
              op
              (Error ("unknown op " ^ op))
              (Result.map ignore (Protocol.parse_request r)))
          [ "compile"; "stats"; "fuzz" ]);
    Util.tc "protocol: responses carry a fixed field order" (fun () ->
        let keys j =
          match j with Json.Obj kvs -> List.map fst kvs | _ -> []
        in
        Util.check
          Alcotest.(list string)
          "ok"
          [ "schema"; "id"; "client"; "status"; "x" ]
          (keys (Protocol.ok ~id:(Json.Int 1) ~client:"c" [ ("x", Json.Int 2) ]));
        Util.check
          Alcotest.(list string)
          "error"
          [ "schema"; "id"; "client"; "status"; "code"; "message" ]
          (keys (Protocol.error ~id:(Json.Int 1) ~client:"c" ~code:"trap" "m"));
        Util.check Alcotest.string "overloaded status" "overloaded"
          (Protocol.response_status
             (Protocol.overloaded ~id:(Json.Int 1) ~client:"c")));
    Util.tc "protocol: config_of_name covers the grid, rejects junk" (fun () ->
        List.iter
          (fun (name, _) ->
            Util.check Alcotest.bool name true
              (Protocol.config_of_name name <> None))
          Config.named_grid;
        Util.check Alcotest.bool "junk name" true
          (Protocol.config_of_name "no-such-config" = None));
    Util.tc "protocol: v2 mode field — absent/interp/native/junk" (fun () ->
        let req extra =
          Json.Obj
            ([
               ("schema", Json.Str Protocol.schema);
               ("op", Json.Str "run");
               ("src", Json.Str "int main() { return 0; }");
             ]
            @ extra)
        in
        let mode_of extra =
          match Protocol.parse_request (req extra) with
          | Ok { Protocol.op = Protocol.Run { mode; _ }; _ } -> Ok mode
          | Ok _ -> Alcotest.fail "expected Run"
          | Error e -> Error e
        in
        Util.check Alcotest.bool "absent defaults to interp" true
          (mode_of [] = Ok Protocol.Interp);
        Util.check Alcotest.bool "explicit interp" true
          (mode_of [ ("mode", Json.Str "interp") ] = Ok Protocol.Interp);
        Util.check Alcotest.bool "native" true
          (mode_of [ ("mode", Json.Str "native") ] = Ok Protocol.Native);
        Util.check Alcotest.bool "unknown mode rejected" true
          (Result.is_error (mode_of [ ("mode", Json.Str "warp") ]));
        Util.check Alcotest.bool "non-string mode rejected" true
          (Result.is_error (mode_of [ ("mode", Json.Int 3) ])));
    Util.tc "protocol: v1 requests are rejected, responses stamp v2" (fun () ->
        let v1 =
          Json.Obj
            [
              ("schema", Json.Str "rpcc-serve/1");
              ("op", Json.Str "run");
              ("src", Json.Str "int main() { return 0; }");
            ]
        in
        (match Protocol.parse_request v1 with
        | Error e ->
          Util.check Alcotest.string "unsupported-schema error"
            "unsupported schema rpcc-serve/1 (want rpcc-serve/2)" e
        | Ok _ -> Alcotest.fail "a v1 request must not parse");
        match Protocol.ok ~id:(Json.Int 1) ~client:"c" [] with
        | Json.Obj (("schema", Json.Str s) :: _) ->
          Util.check Alcotest.string "response schema" "rpcc-serve/2" s
        | _ -> Alcotest.fail "malformed response");
  ]

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let rpcc () = Filename.concat (Sys.getcwd ()) "../bin/rpcc.exe"
let bench () = Filename.concat (Sys.getcwd ()) "../bench/main.exe"

let spawn_daemon ?(extra = []) ~socket ~state ~log () =
  let exe = rpcc () in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process exe
      (Array.of_list
         ([ exe; "serve"; "--socket"; socket; "--state-dir"; state;
            "--jobs"; "2" ]
         @ extra))
      Unix.stdin fd fd
  in
  Unix.close fd;
  pid

let req ~id ~op fields =
  Json.Obj
    ([
       ("schema", Json.Str Protocol.schema);
       ("id", Json.Int id);
       ("client", Json.Str "test");
       ("op", Json.Str op);
     ]
    @ fields)

let run_req ~id src =
  req ~id ~op:"run"
    [ ("src", Json.Str src); ("config", Json.Str "modref/with") ]

let daemon_src =
  "int main() { int i; int s; s = 0; for (i = 0; i < 100; i++) { s = s + \
   i; } print_int(s); return 0; }"

let one socket r =
  match Client.call ~socket [ r ] with
  | [ resp ] -> resp
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 response, got %d" (List.length rs))

let test_daemon_warm_restart () =
  let dir = fresh_dir "daemon" in
  let socket = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  let log = Filename.concat dir "serve.log" in
  let pid = spawn_daemon ~socket ~state ~log () in
  if not (Client.wait_ready ~socket ()) then
    Alcotest.fail "daemon did not come up";
  (* cold compile, then a warm re-serve from the cache *)
  let cold = one socket (run_req ~id:1 daemon_src) in
  Util.check Alcotest.string "cold status ok" "ok" (Protocol.response_status cold);
  Util.check Alcotest.string "cold output" "4950\n"
    (match member_path [ "result"; "output" ] cold with
    | Json.Str s -> s
    | _ -> "");
  let warm = one socket (run_req ~id:1 daemon_src) in
  Util.check Alcotest.string "warm response byte-identical"
    (Json.to_string cold) (Json.to_string warm);
  (* SIGKILL: no drain, no goodbye *)
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (* restart on the same state dir: replays the journal, serves warm *)
  let pid2 = spawn_daemon ~socket ~state ~log () in
  if not (Client.wait_ready ~socket ()) then
    Alcotest.fail "daemon did not restart";
  let replayed = one socket (run_req ~id:1 daemon_src) in
  Util.check Alcotest.string "post-restart response byte-identical"
    (Json.to_string cold) (Json.to_string replayed);
  let health = one socket (req ~id:99 ~op:"health" []) in
  Util.check Alcotest.string "health ok" "ok" (Protocol.response_status health);
  Util.check Alcotest.bool "restart served from cache" true
    (int_at [ "health"; "cache"; "hits" ] health > 0);
  Util.check Alcotest.int "no corruption" 0
    (int_at [ "health"; "cache"; "quarantined" ] health);
  Util.check Alcotest.bool "journal replayed on restart" true
    (int_at [ "health"; "journal"; "replayed" ] health > 0);
  Util.check Alcotest.int "no journal damage" 0
    (int_at [ "health"; "journal"; "skipped" ] health);
  (* SIGTERM: graceful drain, exit 0, socket unlinked *)
  Unix.kill pid2 Sys.sigterm;
  (match Unix.waitpid [] pid2 with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "SIGTERM drain must exit 0");
  Util.check Alcotest.bool "socket unlinked on drain" false
    (Sys.file_exists socket)

let test_daemon_backpressure () =
  let dir = fresh_dir "backpressure" in
  let socket = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  let log = Filename.concat dir "serve.log" in
  let pid =
    spawn_daemon ~extra:[ "--queue-bound"; "1" ] ~socket ~state ~log ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      if not (Client.wait_ready ~socket ()) then
        Alcotest.fail "daemon did not come up";
      let batch =
        [ run_req ~id:1 daemon_src; run_req ~id:2 daemon_src;
          run_req ~id:3 daemon_src ]
      in
      let statuses =
        List.map Protocol.response_status (Client.call ~socket batch)
      in
      Util.check
        Alcotest.(list string)
        "first admitted, rest shed, order kept"
        [ "ok"; "overloaded"; "overloaded" ]
        statuses;
      (* a malformed line still gets an in-order usage error *)
      let statuses2 =
        List.map Protocol.response_status
          (Client.call ~socket
             [ Json.Obj [ ("schema", Json.Str "bogus/9") ];
               run_req ~id:4 daemon_src ])
      in
      Util.check
        Alcotest.(list string)
        "usage error does not consume a queue slot"
        [ "error"; "ok" ]
        statuses2)

(** A client that connects and sends nothing must not hold up anyone
    else: the daemon reads every connection without blocking, so a second
    client is answered at once, and the silent one costs only itself.  A
    flood of them cannot exhaust the daemon either: it holds at most 512
    connections open (past [FD_SETSIZE] descriptors [select] fails), the
    rest wait in the listen backlog, and it serves again once they
    leave. *)
let test_daemon_silent_client () =
  let dir = fresh_dir "silent" in
  let socket = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  let log = Filename.concat dir "serve.log" in
  let pid = spawn_daemon ~socket ~state ~log () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      if not (Client.wait_ready ~socket ()) then
        Alcotest.fail "daemon did not come up";
      let silent = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect silent (Unix.ADDR_UNIX socket);
      let status =
        Fun.protect
          ~finally:(fun () -> Unix.close silent)
          (fun () ->
            match
              Client.call ~timeout:5. ~socket [ run_req ~id:1 daemon_src ]
            with
            | [ r ] -> Protocol.response_status r
            | _ -> "wrong response count"
            | exception Client.Timeout m -> m)
      in
      Util.check Alcotest.string "answered within 5 s beside a silent client"
        "ok" status;
      let health = one socket (req ~id:2 ~op:"health" []) in
      Util.check Alcotest.string "health answers after the silent one left"
        "ok" (Protocol.response_status health);
      (* 570 fits the cap plus the 64-deep backlog, so every connect
         completes *)
      let flood =
        List.init 570 (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            fd)
      in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close flood)
        (fun () ->
          let fd_dir = Printf.sprintf "/proc/%d/fd" pid in
          if Sys.file_exists fd_dir then begin
            let count () = Array.length (Sys.readdir fd_dir) in
            (* let the accept loop settle *)
            let rec settle prev n =
              Unix.sleepf 0.05;
              let c = count () in
              if c = prev || n = 0 then c else settle c (n - 1)
            in
            let held = settle (-1) 40 in
            Util.check Alcotest.bool
              (Printf.sprintf "at most 512 connections held (%d fds)" held)
              true (held < 512 + 32)
          end);
      let health = one socket (req ~id:3 ~op:"health" []) in
      Util.check Alcotest.string "health answers after the flood left" "ok"
        (Protocol.response_status health))

let float_at path j =
  match member_path path j with
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | _ -> Alcotest.fail ("not a number: " ^ String.concat "." path)

(** The probe-first stale-socket policy: a name a live daemon answers on
    must be refused, a dead leftover must be cleared. *)
let test_socket_steal_rejected () =
  let dir = fresh_dir "steal" in
  let path = Filename.concat dir "live.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind lfd (Unix.ADDR_UNIX path);
      Unix.listen lfd 4;
      (match Rp_serve.Daemon.remove_stale_socket path with
      | () -> Alcotest.fail "must refuse to unlink a live socket"
      | exception Failure m ->
        Util.check Alcotest.bool "names the conflict" true
          (let needle = "already being served" in
           let n = String.length needle in
           let rec find i =
             i + n <= String.length m
             && (String.sub m i n = needle || find (i + 1))
           in
           find 0));
      Util.check Alcotest.bool "socket left in place" true
        (Sys.file_exists path);
      (* the listener goes away: the same file is now stale and cleared *)
      Unix.close lfd;
      Rp_serve.Daemon.remove_stale_socket path;
      Util.check Alcotest.bool "stale socket unlinked" false
        (Sys.file_exists path);
      (* a plain file under the socket name is never silently deleted *)
      let imposter = Filename.concat dir "imposter" in
      write_file imposter "not a socket";
      (match Rp_serve.Daemon.remove_stale_socket imposter with
      | () -> Alcotest.fail "must refuse a non-socket file"
      | exception Failure _ -> ());
      Util.check Alcotest.bool "imposter survives" true
        (Sys.file_exists imposter))

(** Startup compaction drops matched recv/done pairs; health reports the
    count plus the new identity fields. *)
let test_journal_compaction_and_health () =
  let dir = fresh_dir "compact" in
  let socket = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  let log = Filename.concat dir "serve.log" in
  let src2 =
    "int main() { int i; int s; s = 0; for (i = 0; i < 10; i++) { s = s + \
     i; } print_int(s); return 0; }"
  in
  let pid = spawn_daemon ~socket ~state ~log () in
  if not (Client.wait_ready ~socket ()) then
    Alcotest.fail "daemon did not come up";
  let statuses =
    List.map Protocol.response_status
      (Client.call ~socket [ run_req ~id:1 daemon_src; run_req ~id:2 src2 ])
  in
  Util.check Alcotest.(list string) "both served" [ "ok"; "ok" ] statuses;
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "drain must exit 0");
  (* restart: the journal holds 2 recv + 2 done, all matched — replay
     reports them, compaction drops all four *)
  let pid2 = spawn_daemon ~socket ~state ~log () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid2 Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid2))
    (fun () ->
      if not (Client.wait_ready ~socket ()) then
        Alcotest.fail "daemon did not restart";
      let health = one socket (req ~id:9 ~op:"health" []) in
      Util.check Alcotest.int "records" 4
        (int_at [ "health"; "journal"; "records" ] health);
      Util.check Alcotest.int "replayed" 2
        (int_at [ "health"; "journal"; "replayed" ] health);
      Util.check Alcotest.int "nothing lost in flight" 0
        (int_at [ "health"; "journal"; "lost_inflight" ] health);
      Util.check Alcotest.int "all four records compacted away" 4
        (int_at [ "health"; "journal"; "compacted_records" ] health);
      (* the new identity fields *)
      Util.check Alcotest.bool "uptime is a non-negative number" true
        ((match member_path [ "health"; "uptime_s" ] health with
         | Json.Int _ -> true
         | _ -> false)
        && float_at [ "health"; "uptime_s" ] health >= 0.);
      Util.check Alcotest.string "pass_version pinned"
        Pipeline.pass_version
        (match member_path [ "health"; "pass_version" ] health with
        | Json.Str s -> s
        | _ -> ""))

(** The daemon's native job mode (rpcc-serve/2): a [mode: native] run
    answers with the interpreter-identical result plus an exec stamp;
    a warm re-request — in either mode — re-serves the cached bytes;
    health reports the compiler identity; and a corrupted cached binary
    is quarantined and recompiled, not run and not fallen back from.
    Gated on a system cc: without one the ladder's interp rung is
    covered by the fault harness instead. *)
let test_daemon_native_mode () =
  match Rp_backend.Native.find_cc () with
  | None -> ()
  | Some _ ->
    let dir = fresh_dir "daemon-native" in
    let socket = Filename.concat dir "d.sock" in
    let state = Filename.concat dir "state" in
    let log = Filename.concat dir "serve.log" in
    let pid = spawn_daemon ~socket ~state ~log () in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      (fun () ->
        if not (Client.wait_ready ~socket ()) then
          Alcotest.fail "daemon did not come up";
        let native_req id =
          req ~id ~op:"run"
            [
              ("src", Json.Str daemon_src);
              ("config", Json.Str "modref/with");
              ("mode", Json.Str "native");
            ]
        in
        (* cold native: compiled and executed as machine code *)
        let nat = one socket (native_req 1) in
        Util.check Alcotest.string "native status ok" "ok"
          (Protocol.response_status nat);
        Util.check Alcotest.bool "exec mode is native" true
          (member_path [ "exec"; "mode" ] nat = Json.Str "native");
        Util.check Alcotest.bool "not degraded" true
          (member_path [ "exec"; "degraded" ] nat = Json.Bool false);
        (* an interp request for the same cell re-serves the identical
           result and stats bytes: one cache, mode-independent *)
        let interp = one socket (run_req ~id:2 daemon_src) in
        Util.check Alcotest.string "result identical across modes"
          (Json.to_string (member_path [ "result" ] nat))
          (Json.to_string (member_path [ "result" ] interp));
        Util.check Alcotest.string "stats identical across modes"
          (Json.to_string (member_path [ "stats" ] nat))
          (Json.to_string (member_path [ "stats" ] interp));
        (* warm native: answered from the store without executing *)
        let warm = one socket (native_req 3) in
        Util.check Alcotest.bool "warm native reports cached" true
          (member_path [ "exec"; "mode" ] warm = Json.Str "cached");
        (* health carries the probed compiler identity *)
        let health = one socket (req ~id:9 ~op:"health" []) in
        Util.check Alcotest.bool "health names a cc" true
          (match member_path [ "health"; "cc" ] health with
          | Json.Str s -> String.length s > 0
          | _ -> false);
        Util.check Alcotest.bool "health says native available" true
          (member_path [ "health"; "native" ] health = Json.Bool true);
        (* binary corruption: flip the last byte of allroots' cached
           binary.  All six of its configs emit one translation unit, so
           another config reads that entry: the store must quarantine it
           and the miss recompile, still answering natively *)
        let allroots =
          (Rp_suite.Programs.find "allroots").Rp_suite.Programs.source
        in
        let native_run id config =
          one socket
            (req ~id ~op:"run"
               [
                 ("src", Json.Str allroots);
                 ("config", Json.Str config);
                 ("mode", Json.Str "native");
               ])
        in
        let cas = Filename.concat state "cas" in
        let before = Util.native_bins cas in
        Util.check Alcotest.string "allroots native ok" "ok"
          (Protocol.response_status (native_run 10 "modref/with"));
        (match
           List.filter (fun b -> not (List.mem b before)) (Util.native_bins cas)
         with
        | [ bin ] ->
          let s = Bytes.of_string (read_file bin) in
          let last = Bytes.length s - 1 in
          Bytes.set s last (Char.chr (Char.code (Bytes.get s last) lxor 0xff));
          write_file bin (Bytes.to_string s)
        | bins ->
          Alcotest.failf "expected one new allroots binary, found %d"
            (List.length bins));
        let repaired = native_run 11 "pointer/without" in
        Util.check Alcotest.string "repaired status ok" "ok"
          (Protocol.response_status repaired);
        Util.check Alcotest.bool "recompiled, still native" true
          (member_path [ "exec"; "mode" ] repaired = Json.Str "native");
        Util.check Alcotest.bool "recompile is not a degradation" true
          (member_path [ "exec"; "degraded" ] repaired = Json.Bool false);
        let _, _, r =
          Pipeline.compile_and_run
            ~config:(List.assoc "pointer/without" Config.paper_grid)
            allroots
        in
        Util.check Alcotest.int "checksum equals the interp answer"
          r.Rp_exec.Interp.checksum
          (int_at [ "result"; "checksum" ] repaired);
        let health = one socket (req ~id:12 ~op:"health" []) in
        Util.check Alcotest.bool "corrupt binary quarantined" true
          (int_at [ "health"; "cache"; "quarantined" ] health >= 1))

(* ------------------------------------------------------------------ *)
(* Uniform --jobs validation across entry points                       *)
(* ------------------------------------------------------------------ *)

let exit_code cmd =
  Sys.command (cmd ^ " > /dev/null 2> /dev/null")

let contains hay needle =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length hay && (String.sub hay i n = needle || find (i + 1))
  in
  find 0

let jobs_validation_tests =
  [
    Util.tc "cli: negative --jobs exits 2 everywhere" (fun () ->
        let q = Filename.quote in
        let dir = fresh_dir "jobsval" in
        List.iter
          (fun (label, cmd) ->
            Util.check Alcotest.int (label ^ " exits 2") 2 (exit_code cmd))
          [
            (* cmdliner needs the [=] glue for a negative option value *)
            ("serve", q (rpcc ()) ^ " serve --jobs=-1");
            ("fuzz", q (rpcc ()) ^ " fuzz --trials 1 --jobs=-1");
            ( "gen-fuzz",
              q (rpcc ()) ^ " gen-fuzz --trials 1 --jobs=-1 --out-dir "
              ^ q (Filename.concat dir "out") );
            ( "bench",
              "cd " ^ q dir ^ " && " ^ q (bench ()) ^ " --json --jobs=-1" );
          ]);
    Util.tc "cli: the usage message names the flag" (fun () ->
        let dir = fresh_dir "jobsmsg" in
        let errf = Filename.concat dir "err.txt" in
        let st =
          Sys.command
            (Filename.quote (rpcc ())
            ^ " serve --jobs=-1 > /dev/null 2> " ^ Filename.quote errf)
        in
        Util.check Alcotest.int "exit 2" 2 st;
        Util.check Alcotest.bool "mentions --jobs" true
          (contains (read_file errf) "--jobs"));
    Util.tc "cli: a --job-timeout that is not > 0 exits 2" (fun () ->
        let q = Filename.quote in
        let dir = fresh_dir "jobtimeout" in
        let journal = Filename.concat dir "fuzz.jsonl" in
        List.iter
          (fun (label, cmd) ->
            let errf = Filename.concat dir (label ^ ".err") in
            Util.check Alcotest.int (label ^ " exits 2") 2
              (Sys.command (cmd ^ " > /dev/null 2> " ^ q errf));
            Util.check Alcotest.bool (label ^ ": the usage line names it") true
              (contains (read_file errf) "usage: --job-timeout must be"))
          [
            ( "bench",
              "cd " ^ q dir ^ " && " ^ q (bench ())
              ^ " --json --job-timeout 0 --retries 0" );
            ( "fuzz",
              q (rpcc ()) ^ " fuzz --trials 3 --job-timeout 0 --journal "
              ^ q journal );
            ( "gen-fuzz",
              q (rpcc ()) ^ " gen-fuzz --trials 3 --job-timeout=-1 --out-dir "
              ^ q (Filename.concat dir "out") );
            (* 0 is serve's documented "no deadline"; a daemon that starts
               anyway is stopped by [timeout], which exits 124 *)
            ( "serve",
              "timeout 30 " ^ q (rpcc ()) ^ " serve --job-timeout=-5 --socket "
              ^ q (Filename.concat dir "s.sock")
              ^ " --state-dir " ^ q (Filename.concat dir "state") );
          ];
        Util.check Alcotest.bool "no journal record written" false
          (Sys.file_exists journal);
        Util.check Alcotest.bool "no counts document written" false
          (Sys.file_exists (Filename.concat dir "BENCH_counts.json")));
    Util.tc "cli: a --timeout out of range exits 2 in run and client"
      (fun () ->
        let q = Filename.quote in
        let dir = fresh_dir "timeoutval" in
        let src = Filename.concat dir "loop.c" in
        write_file src
          "int g; int main() { int i; for (i = 0; i < 200000; i++) g = g + \
           i; print_int(g); return 0; }";
        (* the socket accepts and never answers: a client that connected
           instead of refusing its flag would hang until [timeout] *)
        let socket = Filename.concat dir "mute.sock" in
        let mute = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind mute (Unix.ADDR_UNIX socket);
        Unix.listen mute 4;
        Fun.protect ~finally:(fun () -> Unix.close mute) @@ fun () ->
        List.iter
          (fun (label, args, usage) ->
            let errf = Filename.concat dir "err.txt" in
            Util.check Alcotest.int (label ^ " exits 2") 2
              (Sys.command
                 ("timeout 30 " ^ q (rpcc ()) ^ " " ^ args
                ^ " > /dev/null 2> " ^ q errf));
            Util.check Alcotest.string (label ^ ": the usage line")
              (usage ^ "\n") (read_file errf))
          [
            ("run 0", "run --timeout 0 " ^ q src, "usage: --timeout must be > 0");
            ( "run -1", "run --timeout=-1 " ^ q src,
              "usage: --timeout must be > 0" );
            ( "run --native 0", "run --native --timeout 0 " ^ q src,
              "usage: --timeout must be > 0" );
            ( "client -1", "client health --timeout=-1 --socket " ^ q socket,
              "usage: --timeout must be >= 0 (0 = wait forever)" );
          ]);
  ]

let () =
  Alcotest.run "serve"
    [
      ("cas", cas_tests);
      ("cache", cache_tests);
      ("protocol", protocol_tests);
      ( "daemon",
        [
          Util.tc_slow "serve: SIGKILL warm restart byte-identical, drain"
            test_daemon_warm_restart;
          Util.tc_slow "serve: batch beyond queue bound sheds load"
            test_daemon_backpressure;
          Util.tc_slow "serve: silent clients hold up no one, flood capped"
            test_daemon_silent_client;
          Util.tc "serve: live socket refused, stale socket cleared"
            test_socket_steal_rejected;
          Util.tc_slow "serve: journal compacted on restart, health identity"
            test_journal_compaction_and_health;
          Util.tc_slow "serve: native mode end-to-end, one cache, health cc"
            test_daemon_native_mode;
        ] );
      ("cli", jobs_validation_tests);
    ]
