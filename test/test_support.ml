(** Unit and property tests for the support library. *)

open Rp_support

let idgen_tests =
  [
    Util.tc "fresh is monotonic" (fun () ->
        let g = Idgen.create () in
        Util.check Alcotest.int "first" 0 (Idgen.fresh g);
        Util.check Alcotest.int "second" 1 (Idgen.fresh g);
        Util.check Alcotest.int "third" 2 (Idgen.fresh g));
    Util.tc "start offset respected" (fun () ->
        let g = Idgen.create ~start:10 () in
        Util.check Alcotest.int "first" 10 (Idgen.fresh g);
        Util.check Alcotest.int "peek" 11 (Idgen.peek g));
    Util.tc "count tracks allocations" (fun () ->
        let g = Idgen.create () in
        ignore (Idgen.fresh g);
        ignore (Idgen.fresh g);
        Util.check Alcotest.int "count" 2 (Idgen.count g));
  ]

let uf_tests =
  [
    Util.tc "singletons are their own roots" (fun () ->
        let uf = Union_find.create 8 in
        for i = 0 to 7 do
          Util.check Alcotest.int "root" i (Union_find.find uf i)
        done);
    Util.tc "union merges classes" (fun () ->
        let uf = Union_find.create 8 in
        ignore (Union_find.union uf 0 1);
        ignore (Union_find.union uf 2 3);
        Util.check Alcotest.bool "0~1" true (Union_find.same uf 0 1);
        Util.check Alcotest.bool "2~3" true (Union_find.same uf 2 3);
        Util.check Alcotest.bool "0!~2" false (Union_find.same uf 0 2);
        ignore (Union_find.union uf 1 3);
        Util.check Alcotest.bool "0~3 after chain union" true
          (Union_find.same uf 0 3));
    Util.tc "union is idempotent" (fun () ->
        let uf = Union_find.create 4 in
        let r1 = Union_find.union uf 0 1 in
        let r2 = Union_find.union uf 0 1 in
        Util.check Alcotest.int "same root" r1 r2);
  ]

let uf_props =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"union-find: find is a class representative"
         ~count:200
         (list (pair (int_bound 31) (int_bound 31)))
         (fun pairs ->
           let uf = Union_find.create 32 in
           List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
           (* representative is consistent: same a b <=> find a = find b *)
           List.for_all
             (fun (a, b) ->
               Union_find.same uf a b
               = (Union_find.find uf a = Union_find.find uf b))
             pairs));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"union-find: unions are transitive" ~count:200
         (list (pair (int_bound 15) (int_bound 15)))
         (fun pairs ->
           let uf = Union_find.create 16 in
           List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
           (* brute-force reference partition *)
           let parent = Array.init 16 (fun i -> i) in
           let rec find i = if parent.(i) = i then i else find parent.(i) in
           List.iter
             (fun (a, b) ->
               let ra = find a and rb = find b in
               if ra <> rb then parent.(ra) <- rb)
             pairs;
           List.for_all
             (fun (a, b) ->
               Union_find.same uf a b = (find a = find b))
             (List.concat_map
                (fun a -> List.map (fun b -> (a, b)) [ 0; 5; 10; 15 ])
                [ 0; 3; 7; 12 ])));
  ]

let worklist_tests =
  [
    Util.tc "fifo order" (fun () ->
        let wl = Worklist.create () in
        Worklist.push wl 1;
        Worklist.push wl 2;
        Worklist.push wl 3;
        Util.check Alcotest.(option int) "pop1" (Some 1) (Worklist.pop wl);
        Util.check Alcotest.(option int) "pop2" (Some 2) (Worklist.pop wl));
    Util.tc "no duplicates while pending" (fun () ->
        let wl = Worklist.create () in
        Worklist.push wl 7;
        Worklist.push wl 7;
        ignore (Worklist.pop wl);
        Util.check Alcotest.(option int) "only one" None (Worklist.pop wl));
    Util.tc "re-push after pop allowed" (fun () ->
        let wl = Worklist.create () in
        Worklist.push wl 7;
        ignore (Worklist.pop wl);
        Worklist.push wl 7;
        Util.check Alcotest.(option int) "requeued" (Some 7) (Worklist.pop wl));
    Util.tc "run drains including new work" (fun () ->
        let wl = Worklist.of_list [ 0 ] in
        let seen = ref [] in
        Worklist.run wl (fun x ->
            seen := x :: !seen;
            if x < 3 then Worklist.push wl (x + 1));
        Util.check
          Alcotest.(list int)
          "visited chain" [ 0; 1; 2; 3 ] (List.rev !seen));
  ]

let journal_tests =
  let tmp () = Filename.temp_file "rp_journal" ".jsonl" in
  [
    Util.tc "journal: records round-trip in order" (fun () ->
        let path = tmp () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let w = Journal.create path in
        Journal.record w (Json.Obj [ ("i", Json.Int 1) ]);
        Journal.record w (Json.Obj [ ("i", Json.Int 2) ]);
        Journal.close w;
        Journal.close w;
        (* idempotent *)
        Util.check Alcotest.int "two records" 2 (List.length (Journal.load path));
        Util.check Alcotest.bool "in order" true
          (Journal.load path
          = [ Json.Obj [ ("i", Json.Int 1) ]; Json.Obj [ ("i", Json.Int 2) ] ]));
    Util.tc "journal: missing file is empty; append extends" (fun () ->
        let path = tmp () in
        Sys.remove path;
        Util.check Alcotest.int "missing = empty" 0
          (List.length (Journal.load path));
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let w = Journal.create path in
        Journal.record w (Json.Int 1);
        Journal.close w;
        let w2 = Journal.create path in
        Journal.record w2 (Json.Int 2);
        Journal.close w2;
        Util.check Alcotest.int "appended" 2 (List.length (Journal.load path)));
    Util.tc "journal: truncated final line dropped, corrupt interior skipped"
      (fun () ->
        let path = tmp () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let record i =
          let w = Journal.create path in
          Journal.record w (Json.Obj [ ("i", Json.Int i) ]);
          Journal.close w
        in
        let append s =
          let oc = open_out_gen [ Open_append ] 0o644 path in
          output_string oc s;
          close_out oc
        in
        record 1;
        (* no newline: crashed mid-write *)
        append "{\"crc32\":\"00000000\",\"r\":{\"i\": 2";
        Util.check Alcotest.int "truncated tail dropped" 1
          (List.length (Journal.load path));
        Sys.remove path;
        record 1;
        append "not json at all\n";
        record 3;
        let skipped = ref [] in
        let rs =
          Journal.load path
            ~on_skip:(fun ~line reason -> skipped := (line, reason) :: !skipped)
        in
        Util.check Alcotest.int "good records survive" 2 (List.length rs);
        Util.check Alcotest.bool "in order" true
          (rs = [ Json.Obj [ ("i", Json.Int 1) ]; Json.Obj [ ("i", Json.Int 3) ] ]);
        match !skipped with
        | [ (2, _) ] -> ()
        | _ -> Alcotest.fail "corrupt interior line must be skipped once");
    Util.tc "journal: v2 records carry a CRC; mismatch is skipped" (fun () ->
        let path = tmp () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let w = Journal.create path in
        Journal.record w (Json.Obj [ ("ok", Json.Bool true) ]);
        Journal.close w;
        (* the on-disk line is the CRC wrapper, not the bare payload *)
        let ic = open_in path in
        let line = input_line ic in
        close_in ic;
        (match Json.parse line with
        | Json.Obj kvs ->
          Util.check
            Alcotest.(list string)
            "wrapper keys" [ "crc32"; "r" ] (List.map fst kvs)
        | _ -> Alcotest.fail "v2 line must be an object");
        (* flip the payload without touching the recorded CRC *)
        let forged =
          let needle = "true" in
          let rec find i =
            if i + String.length needle > String.length line then
              Alcotest.fail "payload not found in wrapper"
            else if String.sub line i (String.length needle) = needle then i
            else find (i + 1)
          in
          let i = find 0 in
          String.sub line 0 i ^ "false"
          ^ String.sub line
              (i + String.length needle)
              (String.length line - i - String.length needle)
        in
        let oc = open_out path in
        output_string oc (forged ^ "\n");
        output_string oc line;
        output_string oc "\n";
        close_out oc;
        let skips = ref 0 in
        let rs = Journal.load path ~on_skip:(fun ~line:_ _ -> incr skips) in
        Util.check Alcotest.int "forged record skipped" 1 !skips;
        Util.check Alcotest.bool "intact record loads" true
          (rs = [ Json.Obj [ ("ok", Json.Bool true) ] ]));
    Util.tc "journal: CRC-less lines are skipped and counted" (fun () ->
        let path = tmp () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let w = Journal.create path in
        Journal.record w (Json.Obj [ ("ok", Json.Bool true) ]);
        Journal.close w;
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc "{\"seed\": 7, \"status\": \"ok\"}\n{\"seed\": 8}\n";
        close_out oc;
        let skips = ref 0 in
        let rs = Journal.load path ~on_skip:(fun ~line:_ _ -> incr skips) in
        Util.check Alcotest.int "both bare lines skipped" 2 !skips;
        Util.check Alcotest.bool "the wrapped record loads" true
          (rs = [ Json.Obj [ ("ok", Json.Bool true) ] ]));
    Util.tc "crc32: known vectors, hex round-trip" (fun () ->
        Util.check Alcotest.string "crc32(\"123456789\")" "cbf43926"
          (Crc32.to_hex (Crc32.string "123456789"));
        Util.check Alcotest.string "crc32(\"\")" "00000000"
          (Crc32.to_hex (Crc32.string ""));
        Util.check Alcotest.bool "of_hex inverts" true
          (Crc32.of_hex "cbf43926" = Some (Crc32.string "123456789"));
        Util.check Alcotest.bool "of_hex rejects junk" true
          (Crc32.of_hex "xyzw" = None));
  ]

let resilience_tests =
  [
    Util.tc "resilience: tick/any/json" (fun () ->
        let r = Resilience.create () in
        Util.check Alcotest.bool "fresh is quiet" false (Resilience.any r);
        Resilience.tick r Resilience.Timeout;
        Resilience.tick r Resilience.Timeout;
        Resilience.tick r Resilience.Retry;
        Util.check Alcotest.int "timeouts" 2
          (Resilience.count r Resilience.Timeout);
        Util.check Alcotest.bool "any" true (Resilience.any r);
        Util.check
          Alcotest.(list string)
          "json keys"
          [ "timeouts"; "retries"; "resumed"; "crashed"; "quarantined" ]
          (match Resilience.to_json r with
          | Json.Obj kvs -> List.map fst kvs
          | _ -> []));
  ]

let () =
  Alcotest.run "support"
    [
      ("idgen", idgen_tests);
      ("union_find", uf_tests @ uf_props);
      ("worklist", worklist_tests);
      ("journal", journal_tests);
      ("resilience", resilience_tests);
    ]
