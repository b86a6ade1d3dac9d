(* Self-checks for the benchmark's own arithmetic and answer checks. *)

module Json = Rp_support.Json

let feq = Alcotest.float 1e-9

let test_median () =
  Alcotest.check feq "odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.check feq "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check feq "one" 7. (Stats.median [| 7. |])

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p50 nearest rank" 50. (Stats.percentile xs 50.);
  Alcotest.check feq "p99 nearest rank" 99. (Stats.percentile xs 99.);
  Alcotest.check feq "p100 is the max" 100. (Stats.percentile xs 100.)

let test_summary_count () =
  let s n = Stats.summarize (Array.init n float_of_int) in
  Alcotest.(check int) "sample count" 1000 (s 1000).n;
  Alcotest.(check int) "ten beyond p99 at n=1000" 10 (Stats.beyond 1000 99.);
  Alcotest.(check bool) "p99 reported at n=1000" true ((s 1000).p99 <> None);
  Alcotest.(check bool) "no p99 below ten beyond" true ((s 999).p99 = None)

let span ?(parent = -1) id start_ns stop_ns =
  { Span.id; name = "s"; owner = "o"; parent; start_ns; stop_ns }

let test_self_time () =
  let p = span 0 0 100 in
  (* overlapping children count once; the part outside the parent does
     not count *)
  let kids =
    [ span ~parent:0 1 10 30; span ~parent:0 2 20 40; span ~parent:0 3 90 120 ]
  in
  Alcotest.(check int) "self = duration - union" 60 (Span.self_ns p ~children:kids);
  let selfs = Span.self_times (p :: kids) in
  Alcotest.(check int) "leaf self = duration" 20 (List.assoc (List.nth kids 1) selfs);
  Alcotest.(check int) "via self_times" 60 (List.assoc p selfs);
  Alcotest.(check int) "no children" 100 (Span.self_ns p ~children:[])

(* the first [n] request lines the serve workload sends for [seed] *)
let sequence ~seed n =
  let t = Traffic.make ~seed in
  String.concat ""
    (List.init n (fun id ->
         let it = Traffic.next t in
         Traffic.request_line ~id ~src:(Traffic.source ~seed it.prog)
           ~config:it.config
         ^ "\n"))

let test_sequence_deterministic () =
  let a = sequence ~seed:42 300 and b = sequence ~seed:42 300 in
  Alcotest.(check bool) "byte-identical" true (String.equal a b);
  Alcotest.(check bool) "seed matters" false
    (String.equal a (sequence ~seed:43 300))

let configs = Check.grid_configs

let counts_doc ?(degraded_native = 0) cells =
  Json.Obj
    [
      ("schema", Json.Str "rpcc-bench-counts/6");
      ( "programs",
        Json.Obj
          (List.map
             (fun (name, per_config) ->
               ( name,
                 Json.Obj
                   (List.map
                      (fun (c, ck) ->
                        ( c,
                          Json.Obj
                            [
                              ("ops", Json.Int 10);
                              ("loads", Json.Int 2);
                              ("stores", Json.Int 1);
                              ("checksum", Json.Int ck);
                              ("ptr_promoted", Json.Int 0);
                            ] ))
                      per_config) ))
             cells) );
      ("exec", Json.Obj [ ("degraded_native", Json.Int degraded_native) ]);
    ]

let refs = [ ("a", 11); ("b", 22) ]
let good = List.map (fun (n, ck) -> (n, List.map (fun c -> (c, ck)) configs)) refs

let test_planted_mismatch () =
  let t = Check.grid ~refs (counts_doc good) in
  Alcotest.(check (pair int int)) "clean grid" (12, 0) (t.attempted, t.failed);
  Alcotest.(check int) "counts summed" 120 t.ops;
  let planted =
    List.map
      (fun (n, cells) ->
        (n, List.mapi (fun i (c, ck) -> (c, if n = "b" && i = 3 then ck + 1 else ck)) cells))
      good
  in
  let t = Check.grid ~refs (counts_doc planted) in
  Alcotest.(check (pair int int)) "one planted mismatch" (12, 1) (t.attempted, t.failed);
  Alcotest.(check int) "bad cell not summed" 110 t.ops;
  let missing = [ List.hd good; ("b", List.tl (List.assoc "b" good)) ] in
  Alcotest.(check int) "missing cell" 1 (Check.grid ~refs (counts_doc missing)).failed;
  Alcotest.(check int) "fell to the interpreter rung" 1
    (Check.grid ~refs (counts_doc ~degraded_native:1 good)).failed

let test_answer () =
  let resp output checksum =
    Rp_serve.Protocol.ok ~id:(Json.Int 1) ~client:"c"
      [ ("result", Json.Obj [ ("output", Json.Str output); ("checksum", Json.Int checksum) ]) ]
  in
  Alcotest.(check bool) "right" true (Check.answer_ok ~output:"1\n" ~checksum:5 (resp "1\n" 5));
  Alcotest.(check bool) "wrong checksum" false (Check.answer_ok ~output:"1\n" ~checksum:5 (resp "1\n" 6));
  Alcotest.(check bool) "wrong output" false (Check.answer_ok ~output:"1\n" ~checksum:5 (resp "2\n" 5));
  Alcotest.(check bool) "not ok" false
    (Check.answer_ok ~output:"1\n" ~checksum:5
       (Rp_serve.Protocol.overloaded ~id:(Json.Int 1) ~client:"c"))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "p99 needs ten samples beyond" `Quick test_summary_count;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ( "traffic",
        [ Alcotest.test_case "same seed, same requests" `Quick test_sequence_deterministic ] );
      ( "checks",
        [
          Alcotest.test_case "planted checksum mismatch" `Quick test_planted_mismatch;
          Alcotest.test_case "serve answers" `Quick test_answer;
        ] );
    ]
