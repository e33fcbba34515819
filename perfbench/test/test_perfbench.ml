(* Unit tests for the benchmark's own helpers: percentiles and their
   sample-count rule, trigger-event mapping, span self time, the best
   timeline of a run's passes, and the ledger record's JSON round
   trip. *)

open Perfbench

let feq = Alcotest.float 1e-12

let test_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50 of 1..100" 50. (Percentile.nearest_rank xs 0.5);
  Alcotest.check feq "p99 of 1..100" 99. (Percentile.nearest_rank xs 0.99);
  Alcotest.check feq "p100 is the max" 100. (Percentile.nearest_rank xs 1.0);
  Alcotest.check feq "p0 is the min" 1. (Percentile.nearest_rank xs 0.0);
  Alcotest.check feq "single sample" 7. (Percentile.nearest_rank [| 7. |] 0.99);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Percentile.nearest_rank [||] 0.5));
  let unsorted = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check feq "median sorts a copy" 3. (Percentile.median unsorted);
  Alcotest.check feq "input untouched" 5. unsorted.(0)

let test_sample_rule () =
  Alcotest.(check int) "p99 needs 1000" 1000 (Percentile.min_samples 0.99);
  Alcotest.(check int) "p50 needs 20" 20 (Percentile.min_samples 0.5);
  Alcotest.(check bool) "999 do not support p99" false
    (Percentile.supported ~n:999 0.99);
  Alcotest.(check bool) "1000 support p99" true
    (Percentile.supported ~n:1000 0.99);
  let s = Percentile.of_samples (Array.init 372 float_of_int) 0.99 in
  Alcotest.(check int) "count carried" 372 s.Percentile.samples;
  Alcotest.(check bool) "flagged unsupported" false s.Percentile.supported;
  Alcotest.check feq "still read by nearest rank" 368. s.Percentile.value

let test_first_after () =
  let ts = [| 0; 1; 1; 3; 7; 7; 12 |] in
  let check name want from tau =
    Alcotest.(check (option int)) name want (Trigger.first_after ts ~from ~tau)
  in
  check "strictly beyond tau" (Some 3) 0 2;
  check "equal span does not expire" (Some 4) 0 3;
  check "ties: first of the run" (Some 4) 1 5;
  check "none past the end" None 7 5;
  check "first event itself" (Some 0) (-5) 4

let test_event_ids () =
  Alcotest.(check (list int)) "paper rendering" [ 0; 3; 8 ]
    (Trigger.event_ids "{c/e1, p+/e4, d/e9}");
  Alcotest.(check (list int)) "inside a MATCH line" [ 11; 12 ]
    (Trigger.event_ids "MATCH bench cd {c/e12, d/e13}");
  Alcotest.(check (list int)) "no ids" [] (Trigger.event_ids "{}");
  Alcotest.(check (list int)) "bare /e skipped" [ 1 ]
    (Trigger.event_ids "{a/ex, b/e2}")

let test_segment_of () =
  let starts = [| 0; 64; 128; 130 |] in
  List.iter
    (fun (i, want) ->
      Alcotest.(check int) (Printf.sprintf "position %d" i) want
        (Trigger.segment_of starts i))
    [ (0, 0); (63, 0); (64, 1); (129, 2); (130, 3); (5000, 3) ]

(* Trigger mapping end to end: a match rendered by the server maps back
   to the frame that carried the event expiring it. *)
let test_trigger_to_frame () =
  let ts = [| 0; 2; 4; 6; 8; 10; 12; 14 |] in
  let frame_starts = [| 0; 3; 6 |] in
  let ids = Trigger.event_ids "{c/e2, d/e3}" in
  let min_ts = List.fold_left (fun m i -> min m ts.(i)) max_int ids in
  match Trigger.first_after ts ~from:min_ts ~tau:5 with
  | None -> Alcotest.fail "expected a trigger"
  | Some i ->
      Alcotest.(check int) "trigger event" 4 i;
      Alcotest.(check int) "its frame" 1 (Trigger.segment_of frame_starts i)

let test_self_time () =
  let now = ref 0 in
  let clock () = !now in
  let advance d = now := !now + d in
  let t = Spans.create ~clock ~run_id:"r1" () in
  Spans.with_span t "root" (fun () ->
      advance 10;
      Spans.with_span t "child" (fun () ->
          advance 30;
          Spans.with_span t "leaf" (fun () -> advance 5));
      advance 2;
      Spans.with_span t "child" (fun () -> advance 8));
  let spans = Spans.spans t in
  Alcotest.(check (list string)) "start order"
    [ "root"; "child"; "leaf"; "child" ]
    (List.map (fun (s : Spans.span) -> s.name) spans);
  Alcotest.(check (list (option int))) "parents" [ None; Some 0; Some 1; Some 0 ]
    (List.map (fun (s : Spans.span) -> s.parent) spans);
  let layer name =
    List.find (fun (l : Spans.layer) -> String.equal l.layer name) (Spans.layers spans)
  in
  let root = layer "root" and child = layer "child" and leaf = layer "leaf" in
  Alcotest.(check int) "root total" 55 root.total_ns;
  Alcotest.(check int) "root self" 12 root.self_ns;
  Alcotest.(check int) "child calls" 2 child.calls;
  Alcotest.(check int) "child self excludes leaf" 38 child.self_ns;
  Alcotest.(check int) "child max" 35 child.max_ns;
  Alcotest.(check int) "leaf self" 5 leaf.self_ns;
  Alcotest.(check int) "self times partition the root" root.total_ns
    (root.self_ns + child.self_ns + leaf.self_ns)

let test_span_exception () =
  let t = Spans.create ~clock:(fun () -> 0) ~run_id:"r" () in
  (try Spans.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Spans.with_span t "after" (fun () -> ());
  Alcotest.(check (list (option int))) "stack unwound" [ None; None ]
    (List.map (fun (s : Spans.span) -> s.parent) (Spans.spans t))

let sample_record =
  {
    Record.workload = "q1_group";
    seed = 3;
    seconds = 10;
    trace = false;
    run_id = "q1_group-3-42";
    cores = 2;
    ocaml = "5.1.1";
    profile = "release";
    correct = true;
    attempted = 7;
    failed = 0;
    metrics =
      [
        { Record.name = "events_per_s"; value = 4887.123456789012; unit_ = "1/s"; samples = 4 };
        { Record.name = "bounds.overall"; value = Float.infinity; unit_ = "count"; samples = 1 };
        { Record.name = "peak_rss_mb"; value = 1e-05; unit_ = "MB"; samples = 1 };
      ];
    flags = [ "match_latency_p99_ms: 372 samples, p99 needs 1000" ];
  }

let test_record_round_trip () =
  let line = Json.to_string (Record.to_json sample_record) in
  match Result.bind (Json.of_string line) Record.of_json with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "equal after round trip" true (r = sample_record)

let test_summary_shape () =
  let r = { sample_record with metrics = List.tl (List.tl sample_record.metrics) } in
  match Json.of_string (Json.to_string (Record.summary r)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let keys = match j with Json.Assoc kvs -> List.map fst kvs | _ -> [] in
      Alcotest.(check (list string)) "contract keys"
        [ "correct"; "attempted"; "failed"; "metrics" ] keys;
      let m = Option.bind (Json.member "metrics" j) (Json.member "peak_rss_mb") in
      Alcotest.(check (option (float 0.))) "value kept" (Some 1e-05)
        (Option.bind (Option.bind m (Json.member "value")) Json.to_float);
      let inf = Record.summary sample_record in
      Alcotest.(check (option bool)) "non-finite metric is not correct" (Some false)
        (match Json.member "correct" inf with Some (Json.Bool b) -> Some b | _ -> None)

let test_json_values () =
  let v =
    Json.Assoc
      [
        ("s", Json.String "a\"b\\c\n\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 3.0);
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Float 0.1 ]);
        ("e", Json.Assoc []);
      ]
  in
  Alcotest.(check bool) "round trip" true
    (Json.of_string (Json.to_string v) = Ok v);
  Alcotest.(check bool) "trailing garbage rejected" true
    (Result.is_error (Json.of_string "{} x"));
  Alcotest.(check bool) "non-finite refused" true
    (match Json.to_string (Json.Float Float.nan) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_best_timeline () =
  let floats = Alcotest.(option (array (float 1e-12))) in
  Alcotest.check floats "elementwise minimum" (Some [| 1.; 2.; 1. |])
    (Timeline.best [ [| 3.; 2.; 5. |]; [| 1.; 4.; 1. |]; [| 2.; 2.; 9. |] ]);
  Alcotest.check floats "one pass is its own best" (Some [| 0.5 |]) (Timeline.best [ [| 0.5 |] ]);
  Alcotest.check floats "no passes" None (Timeline.best []);
  Alcotest.check floats "passes that made different calls" None
    (Timeline.best [ [| 1.; 2. |]; [| 1. |] ]);
  let first = [| 3.; 2. |] in
  ignore (Timeline.best [ first; [| 1.; 1. |] ]);
  Alcotest.check feq "input untouched" 3. first.(0);
  Alcotest.check feq "total" 6. (Timeline.total [| 1.; 2.; 3. |])

let test_timeline_latency () =
  let best = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (array (float 1e-12)))
    "start of the trigger's call to the end of the returning call" [| 2.; 5.; 9.; 10. |]
    (Timeline.latencies best [| (1, 1); (1, 2); (1, 3); (0, 3) |]);
  Alcotest.(check bool) "match before its trigger refused" true
    (match Timeline.latencies best [| (2, 1) |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "sample-count rule" `Quick test_sample_rule;
        ] );
      ( "trigger",
        [
          Alcotest.test_case "first event beyond tau" `Quick test_first_after;
          Alcotest.test_case "event ids of a rendering" `Quick test_event_ids;
          Alcotest.test_case "segment lookup" `Quick test_segment_of;
          Alcotest.test_case "match to frame" `Quick test_trigger_to_frame;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "exception closes span" `Quick test_span_exception;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "best of the passes" `Quick test_best_timeline;
          Alcotest.test_case "latency on the timeline" `Quick test_timeline_latency;
        ] );
      ( "record",
        [
          Alcotest.test_case "json values" `Quick test_json_values;
          Alcotest.test_case "record round trip" `Quick test_record_round_trip;
          Alcotest.test_case "summary line shape" `Quick test_summary_shape;
        ] );
    ]
