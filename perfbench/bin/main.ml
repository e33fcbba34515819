(* The ses benchmark driver.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --ses PATH --profile NAME

   runs one workload on inputs generated from the seed, checks its
   output against a reference computation, and prints two lines: the
   ledger record (stamps, every metric with its sample count, flags),
   then the summary — {correct, attempted, failed, metrics} — as the
   last line. With --trace 0 the metrics are the end-to-end ones,
   measured untraced; with --trace 1 a separate traced run gives the
   per-layer split. perfbench/run.sh builds everything and calls this.

     main.exe gen KIND SEED SIZE PATH

   writes a generated input CSV (chemo: SIZE patients; scan: a dense
   random relation of SIZE events over 48 entity ids). *)

open Perfbench

let end_to_end =
  [
    ("setup_s", "s");
    ("events_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("match_latency_p50_ms", "ms");
    ("match_latency_p99_ms", "ms");
  ]

let per_layer =
  [
    ("csv.load_s", "s");
    ("csv_stream.next_batch_s", "s");
    ("csv_stream.rows_scanned", "count");
    ("csv_stream.rows_dropped", "count");
    ("access_exec.prepare_s", "s");
    ("planner.plan_s", "s");
    ("access_exec.materialize_s", "s");
    ("access_exec.candidates", "count");
    ("access_exec.postings_scanned", "count");
    ("access_exec.clipped", "count");
    ("lang.parse_s", "s");
    ("automaton.build_s", "s");
    ("executor.feed_batch_s", "s");
    ("executor.feed_batch_p99_us", "us");
    ("executor.close_s", "s");
    ("engine.instances_created", "count");
    ("engine.transitions_fired", "count");
    ("engine.peak_instances", "count");
    ("engine.instances_expired", "count");
    ("engine.raw_emitted", "count");
    ("engine.raw_per_instance", "ratio");
    ("finalize_s", "s");
    ("finalize.candidates", "count");
    ("finalize.matches", "count");
    ("multi.create_s", "s");
    ("multi.feed_batch_s", "s");
    ("multi.close_s", "s");
    ("predicate_index.evaluated", "count");
    ("predicate_index.saved", "count");
    ("predicate_index.hit_rate", "ratio");
    ("shared_plan.merged_groups", "count");
    ("runtime.input_s", "s");
    ("runtime.tick_s", "s");
    ("runtime.take_output_s", "s");
    ("runtime.ticks", "count");
    ("runtime.queue_depth_max", "count");
    ("runtime.slow_signals", "count");
    ("server.cpu_s", "s");
    ("server.busy_ratio", "ratio");
    ("tcp.batch_ack_p50_ms", "ms");
    ("tcp.batch_ack_p99_ms", "ms");
    ("loadgen.lag_p99_ms", "ms");
    ("bounds.window", "count");
    ("bounds.peak_ratio", "ratio");
    ("telemetry.recording_overhead_pct", "%");
    ("trace.overhead_pct", "%");
    ("trace.coverage_pct", "%");
  ]

let workloads =
  [
    ("q1_group", Q1_group.run);
    ("scan_1m", Scan_1m.run);
    ("pubsub_1000q", Pubsub.run);
    ("serve_loopback", Serve_loopback.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --ses PATH [--profile P]\n\
    \       main.exe gen chemo|scan SEED SIZE PATH";
  exit 2

let gen = function
  | [ kind; seed; size; path ] -> (
      let seed = int_of_string seed and size = int_of_string size in
      let rel =
        match kind with
        | "chemo" ->
            Ses_gen.Chemo.generate
              { Ses_gen.Chemo.default with seed = Int64.of_int seed; patients = size }
        | "scan" ->
            Ses_gen.Random_workload.relation
              (Ses_gen.Prng.create (Int64.of_int seed))
              {
                Ses_gen.Random_workload.n_events = size;
                n_labels = 4;
                n_ids = 48;
                min_gap = 0;
                max_gap = 1;
                max_value = 5;
              }
        | _ -> usage ()
      in
      match Ses_store.Csv.save path rel with
      | Ok () -> ()
      | Error e ->
          prerr_endline ("gen: " ^ e);
          exit 1)
  | _ -> usage ()

let bench args =
  let opt name =
    let rec find = function
      | k :: v :: _ when String.equal k name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let int_opt name = Option.bind (opt name) int_of_string_opt in
  let workload, run =
    match Option.bind (opt "--workload") (fun w -> List.assoc_opt w workloads |> Option.map (fun r -> (w, r))) with
    | Some x -> x
    | None -> usage ()
  in
  let seed, seconds, trace, ses =
    match (int_opt "--seed", int_opt "--seconds", int_opt "--trace", opt "--ses") with
    | Some s, Some secs, Some tr, Some ses when secs >= 1 && (tr = 0 || tr = 1) ->
        (s, secs, tr = 1, ses)
    | _ -> usage ()
  in
  let profile = Option.value ~default:"unknown" (opt "--profile") in
  if not (Sys.file_exists ses) then begin
    prerr_endline ("perfbench: no ses binary at " ^ ses);
    exit 2
  end;
  Common.mkdir_p Common.out_root;
  let pid = Unix.getpid () in
  let scratch = Filename.concat Common.out_root (Printf.sprintf "tmp-%d" pid) in
  Common.mkdir_p scratch;
  let run_id =
    Printf.sprintf "%s-s%d-t%d-%d-%d" workload seed (Bool.to_int trace) pid
      (int_of_float (Unix.gettimeofday ()))
  in
  let ctx = { Common.workload; seed; seconds; trace; ses; run_id; scratch } in
  let cleanup () =
    Common.kill_children ();
    Common.remove_tree scratch
  in
  let on_signal _ =
    cleanup ();
    exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  match run ctx with
  | exception e ->
      cleanup ();
      Printf.eprintf "perfbench: %s failed: %s\n%!" workload (Printexc.to_string e);
      exit 1
  | tally, table ->
      cleanup ();
      let declared = if trace then per_layer else end_to_end in
      let metrics =
        List.map
          (fun (name, unit_) ->
            let value, samples =
              Option.value ~default:(0., 0) (Hashtbl.find_opt table name)
            in
            { Record.name; value; unit_; samples })
          declared
      in
      let record =
        {
          Record.workload;
          seed;
          seconds;
          trace;
          run_id;
          cores = Domain.recommended_domain_count ();
          ocaml = Sys.ocaml_version;
          profile;
          correct = tally.Common.failed = 0;
          attempted = max 1 tally.attempted;
          failed = tally.failed;
          metrics;
          flags = List.rev tally.flags;
        }
      in
      let line = Json.to_string (Record.to_json record) in
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644
        (Filename.concat Common.out_root "ledger.jsonl")
        (fun oc -> output_string oc (line ^ "\n"));
      print_endline line;
      print_endline (Json.to_string (Record.summary record))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "gen" :: rest -> gen rest
  | args -> bench args
