(* Tests for the benchmark's own helpers: the percentile pick, span self
   time, metric names, reply classification, and the agreement between the
   metric registry and BENCHMARK.json. *)

open Perfbench_core

(* ---------------- percentile pick ---------------- *)

let samples n = Array.init n (fun i -> float_of_int (n - i))

let test_rank () =
  Alcotest.(check int) "p50 of 4" 1 (Pick.rank ~n:4 500);
  Alcotest.(check int) "p99 of 1000" 989 (Pick.rank ~n:1000 990);
  Alcotest.(check int) "p100 of 7" 6 (Pick.rank ~n:7 1000);
  Alcotest.(check (float 0.)) "median of 3" 2. (Pick.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "median of 4, nearest rank" 2. (Pick.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (Pick.percentile (samples 1000) 990)

let test_ten_beyond () =
  Alcotest.(check bool) "p99 needs 1000 samples" true (Pick.supported ~n:1000 990);
  Alcotest.(check bool) "999 samples leave 9 beyond p99" false (Pick.supported ~n:999 990);
  Alcotest.(check bool) "p99.9 at 10000" true (Pick.supported ~n:10_000 999);
  Alcotest.(check bool) "empty" false (Pick.supported ~n:0 500);
  let tail n = Option.map fst (Pick.tail (samples n)) in
  Alcotest.(check (option int)) "10 samples: no tail" None (tail 10);
  Alcotest.(check (option int)) "50 samples: p75" (Some 750) (tail 50);
  Alcotest.(check (option int)) "100 samples: p90" (Some 900) (tail 100);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 990) (tail 1000);
  Alcotest.(check (option int)) "20000 samples: p99.9" (Some 999) (tail 20_000);
  Alcotest.(check string) "label" "p99.9" (Pick.label 999);
  Alcotest.(check string) "label" "p75" (Pick.label 750)

(* ---------------- span self time ---------------- *)

let sp id parent a b =
  { Trace.id; name = "s"; parent; req = -1; start_ns = Int64.of_int a; end_ns = Int64.of_int b }

let self all s = Int64.to_int (Trace.self_ns all s)

let test_self_nested () =
  let root = sp 0 (-1) 0 100 in
  let a = sp 1 0 10 30 and grandchild = sp 2 1 12 28 in
  let all = [ root; a; grandchild ] in
  Alcotest.(check int) "root less its child" 80 (self all root);
  Alcotest.(check int) "child less the grandchild" 4 (self all a);
  Alcotest.(check int) "leaf" 16 (self all grandchild)

let test_self_overlap () =
  let root = sp 0 (-1) 0 100 in
  (* Two children overlapping on [20, 30], one nested in another, one
     running past the parent's end. *)
  let all = [ root; sp 1 0 10 30; sp 2 0 20 50; sp 3 0 25 40; sp 4 0 90 120 ] in
  Alcotest.(check int) "overlap counts once, overhang is clipped" 50 (self all root);
  Alcotest.(check int) "no children" 30 (self all (sp 9 (-1) 0 30))

(* ---------------- metric names ---------------- *)

let all_names = List.map (fun (m : Metrics.metric) -> m.name) (Metrics.end_to_end @ Metrics.per_layer)

let test_names () =
  List.iter (fun n -> Alcotest.(check bool) n true (Metrics.valid_name n)) all_names;
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S refused" n) false (Metrics.valid_name n))
    [ ""; "_lead"; ".lead"; "has space"; "a/b"; "tab\t"; "é"; String.make 65 'a' ];
  Alcotest.(check bool) "64 letters" true (Metrics.valid_name (String.make 64 'a'));
  Alcotest.(check int) "names are unique" (List.length all_names)
    (List.length (List.sort_uniq compare all_names))

let test_result_line () =
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    (Metrics.result_line ~correct:true ~attempted:3 ~failed:0 [ ("setup_s", "s", 0.5) ]);
  Alcotest.check_raises "non-finite refused"
    (Invalid_argument "Metrics.result_line: non-finite x") (fun () ->
      ignore (Metrics.result_line ~correct:true ~attempted:1 ~failed:0 [ ("x", "s", nan) ]))

(* ---------------- reply classification ---------------- *)

let outcome = Alcotest.testable (fun ppf o -> Format.pp_print_string ppf (Outcome.name o)) ( = )
let enc = Protocol.response_to_string

let test_classify () =
  let expected = enc (Protocol.R_matrix (Mat.init 2 3 (fun i j -> float_of_int (i + j)))) in
  let other = enc (Protocol.R_matrix (Mat.init 2 3 (fun i j -> float_of_int (i * j)))) in
  let read = Outcome.of_read ~expected in
  Alcotest.check outcome "expected bytes" Outcome.Ok (read expected);
  Alcotest.check outcome "other matrix" Outcome.Mismatch (read other);
  Alcotest.check outcome "shed" Outcome.Shed (read (enc (Protocol.R_shed { depth = 4; capacity = 4 })));
  Alcotest.check outcome "deadline" Outcome.Deadline
    (read (enc (Protocol.R_deadline { stage = "queue"; elapsed_ms = 7 })));
  Alcotest.check outcome "unavailable" Outcome.Unavailable
    (read (enc (Protocol.R_unavailable { model_id = "default"; retry_after_ms = 9 })));
  Alcotest.check outcome "error" Outcome.Error
    (read (enc (Protocol.R_error { code = "worker-crash"; message = "" })));
  Alcotest.check outcome "undecodable" Outcome.Mismatch (read "\xff\x00garbage");
  Alcotest.check outcome "R_ok to a read" Outcome.Mismatch
    (read (enc (Protocol.R_ok { version = 1; note = "" })));
  Alcotest.check outcome "write ok" Outcome.Ok
    (Outcome.of_write (enc (Protocol.R_ok { version = 2; note = "ingested" })));
  Alcotest.check outcome "write refused" Outcome.Error
    (Outcome.of_write (enc (Protocol.R_error { code = "refit-failed"; message = "" })));
  Alcotest.check outcome "write answered with a matrix" Outcome.Mismatch (Outcome.of_write other);
  let c = Outcome.counts () in
  List.iter (Outcome.bump c) [ Outcome.Ok; Outcome.Ok; Outcome.Shed; Outcome.Mismatch ];
  Alcotest.(check int) "ok count" 2 (Outcome.count c Outcome.Ok);
  Alcotest.(check int) "failed count" 2 (Outcome.failed c);
  Alcotest.(check string) "metric name" "serve.outcome.unavailable" (Outcome.metric Outcome.Unavailable)

(* ---------------- BENCHMARK.json ---------------- *)

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let occurrences hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
  in
  go 0 0

(* BENCHMARK.json gates exactly the gated workloads, and lists every
   metric a run of them reports, with the registry's unit and direction. *)
let test_benchmark_json () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let listed entry = Alcotest.(check bool) entry true (contains json entry) in
  List.iter (fun w -> listed (Printf.sprintf "{\"name\": %S, \"why\": " w)) Metrics.gated;
  let e2e = Metrics.reported Metrics.end_to_end (List.hd Metrics.gated) in
  let layers = Metrics.reported Metrics.per_layer (List.hd Metrics.gated) in
  List.iter
    (fun (m : Metrics.metric) ->
      listed
        (Printf.sprintf "{\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}" m.name
           m.unit_ m.better (Metrics.bound m.name)))
    e2e;
  List.iter
    (fun (m : Metrics.metric) ->
      listed (Printf.sprintf "{\"name\": %S, \"unit\": %S, \"better\": %S}" m.name m.unit_ m.better))
    layers;
  Alcotest.(check int) "no other names"
    (List.length Metrics.gated + List.length e2e + List.length layers)
    (occurrences json "\"name\":");
  List.iter
    (fun w ->
      Alcotest.(check (list string)) ("same set on " ^ w)
        (List.map (fun (m : Metrics.metric) -> m.name) layers)
        (List.map (fun (m : Metrics.metric) -> m.name) (Metrics.reported Metrics.per_layer w)))
    Metrics.gated

let () =
  Alcotest.run "perfbench"
    [ ( "pick",
        [ Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond ] );
      ( "trace",
        [ Alcotest.test_case "nested self time" `Quick test_self_nested;
          Alcotest.test_case "overlapping children" `Quick test_self_overlap ] );
      ( "metrics",
        [ Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "BENCHMARK.json lists the registry" `Quick test_benchmark_json ] );
      ("outcome", [ Alcotest.test_case "reply classification" `Quick test_classify ]) ]
