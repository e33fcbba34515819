(* scan_1m: the id-joined-2set query (a.L = 'a' ∧ b.L = 'b' ∧ V ≥ 4,
   joined on ID, WITHIN 4) over a 1.024M-row random relation (48
   entity keys, 4 labels) written once as CSV, through
   Stream_runner.run — the `ses match --stream` path with the strong
   filter pushed into the store scan. Decode and filter dominate; the
   engine sees ~17% of the rows. *)

open Ses_event
open Ses_pattern
open Ses_core
open Ses_harness
open Perfbench
open Common

let text =
  "PATTERN (a) -> (b) WHERE a.L = 'a' AND b.L = 'b' AND a.V >= 4 AND b.V >= 4 \
   AND a.ID = b.ID WITHIN 4"

(* One random relation, not copies of a smaller one: copies repeat
   every match, so a latency tail read over them rests on a quarter as
   many independent samples as it counts. *)
let rows = 1_024_000

let query schema =
  Result.map Automaton.of_pattern (Ses_lang.Lang.parse_pattern schema text)

(* Emissions an executor held until close (the partitioned executors
   return nothing from their feed calls): every raw emission no feed
   call returned, tagged with the close call. *)
let held_until_close ~fed ~all ~closed ~tau =
  let returned = Hashtbl.create 1024 in
  List.iter
    (fun (_, _, s) ->
      let k = Substitution.canonical s in
      Hashtbl.replace returned k (1 + Option.value ~default:0 (Hashtbl.find_opt returned k)))
    fed;
  List.filter_map
    (fun s ->
      let k = Substitution.canonical s in
      match Hashtbl.find_opt returned k with
      | Some n when n > 0 ->
          Hashtbl.replace returned k (n - 1);
          None
      | _ -> Some (closed, tau, s))
    all

(* Growable arrays for per-batch bookkeeping. *)
module Buf = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 1024 dummy; n = 0; dummy }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) b.dummy in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

type pass = {
  matches : Substitution.t list;
  raw : int;
  durations : float array;
  spans : (int * int) array;
  metrics : Metrics.snapshot;
  scanned : int;
  dropped : int;
  pattern : Pattern.t;
}

(* Stream_runner.run's steps, called one by one from outside. *)
let decomposed (wr : wrap) path =
  let src =
    wr.w "csv_stream.open_source" (fun () -> ok "csv" (Ses_store.Csv_stream.open_source path))
  in
  Fun.protect
    ~finally:(fun () -> Ses_store.Csv_stream.close_source src)
    (fun () ->
      let schema = Ses_store.Csv_stream.source_schema src in
      let pattern =
        wr.w "lang.parse" (fun () -> ok "query" (Ses_lang.Lang.parse_pattern schema text))
      in
      let automaton = wr.w "automaton.build" (fun () -> Automaton.of_pattern pattern) in
      let extra =
        wr.w "planner.plan" (fun () ->
            match Planner.analyze automaton with
            | Some a -> a.Planner.filter_extras
            | None -> [])
      in
      (match Stream_runner.selection_of_pattern ~extra pattern with
      | Some p ->
          wr.w "csv_stream.push_selection" (fun () ->
              ok "selection" (Ses_store.Csv_stream.push_selection src p))
      | None -> ());
      let exec = wr.w "executor.create" (fun () -> Executor.create `Auto automaton) in
      let c = calls () in
      let ts = Buf.create 0 and starts = Buf.create 0 in
      let emitted = ref [] in
      let tau = Pattern.tau pattern in
      (* One timed call per batch: the scan that reads it, which is when
         its rows are offered, then the feed. *)
      let rec go () =
        match
          call c (fun () ->
              let es =
                wr.w "csv_stream.next_batch" (fun () ->
                    ok "scan" (Ses_store.Csv_stream.next_batch src Engine.default_batch_size))
              in
              if Array.length es = 0 then None
              else Some (es, wr.w "executor.feed_batch" (fun () -> Executor.feed_batch exec es)))
        with
        | _, None -> ()
        | i, Some (es, out) ->
            Buf.push starts ts.Buf.n;
            Array.iter (fun e -> Buf.push ts (Event.ts e)) es;
            emitted := List.rev_append (List.map (fun s -> (i, tau, s)) out) !emitted;
            go ()
      in
      go ();
      let closed, _ = call c (fun () -> wr.w "executor.close" (fun () -> Executor.close exec)) in
      let _, (raw, matches) =
        call c (fun () ->
            wr.w "finalize" (fun () ->
                let raw = Executor.emitted exec in
                (raw, Substitution.finalize pattern raw)))
      in
      emitted := held_until_close ~fed:!emitted ~all:raw ~closed ~tau @ !emitted;
      {
        matches;
        raw = List.length raw;
        durations = durations c;
        spans =
          trigger_spans ~ts:(Buf.to_array ts) ~starts:(Buf.to_array starts) ~first:0 !emitted;
        metrics = Executor.metrics exec;
        scanned = Ses_store.Csv_stream.scanned src;
        dropped = Ses_store.Csv_stream.dropped src;
        pattern;
      })

(* What Stream_runner.run does before the first row reaches the engine:
   open and read the header, compile the query, plan, push the filter
   down, create the executor. *)
let setup path =
  Ses_store.Csv_stream.with_source path (fun src ->
      let schema = Ses_store.Csv_stream.source_schema src in
      let automaton = ok "query" (query schema) in
      let extra =
        match Planner.analyze automaton with Some a -> a.Planner.filter_extras | None -> []
      in
      (match Stream_runner.selection_of_pattern ~extra (Automaton.pattern automaton) with
      | Some p -> ok "selection" (Ses_store.Csv_stream.push_selection src p)
      | None -> ());
      ignore (Executor.create `Auto automaton);
      Ok ())
  |> ok "setup"

let run ctx =
  Ses_analysis.Analyzer.register ();
  let t = tally () and m = metrics () in
  let path = generate ctx "scan" rows in
  let stream ?options () = ok "stream" (Stream_runner.run ?options ~query path) in
  if not ctx.trace then begin
    (* Each pass is a few set-ups (timed on their own; they take tens
       of microseconds, so several per pass spread them over the run),
       then Stream_runner.run's steps as timed calls. Only the first
       pass is kept; later passes are checked against it. *)
    let first = ref None in
    let runs =
      passes ~seconds:ctx.seconds ~min_reps:3 (fun () ->
          let setups = List.init 10 (fun _ -> snd (time (fun () -> setup path))) in
          let d = decomposed untraced path in
          (match !first with
          | None -> first := Some (d, peak_rss_mb "self")
          | Some (f, _) -> check t "pass = first pass" (same_substs d.matches f.matches));
          (d.durations, setups))
    in
    let setups = List.concat_map (fun ((_, s), _) -> s) runs in
    let d, rss = Option.get !first in
    check t "Stream_runner.run = decomposed calls" (same_substs (stream ()).matches d.matches);
    let rel = ok "csv" (Ses_store.Csv.load path) in
    let automaton = ok "query" (query (Relation.schema rel)) in
    let materialized = Access_exec.run (Access_exec.prepare rel) automaton in
    check t "stream path = materialized path" (same_substs d.matches materialized.matches);
    set m ~samples:(List.length setups) "setup_s" (fast_duration setups);
    set m "peak_rss_mb" rss;
    set_timeline t m ~events:d.scanned (List.map (fun ((d, _), _) -> d) runs) d.spans
  end
  else begin
    let reference, untraced_s = time (fun () -> decomposed untraced path) in
    let rec_ = Spans.create ~run_id:ctx.run_id () in
    let wr = traced rec_ in
    let d, traced_s = time (fun () -> wr.w root_span (fun () -> decomposed wr path)) in
    let spans = Spans.spans rec_ in
    write_spans ctx spans;
    set_layers m spans ~traced_s ~untraced_s;
    check t "traced decomposed run = untraced" (same_substs d.matches reference.matches);
    set_engine m d.metrics;
    set m "csv_stream.rows_scanned" (float_of_int d.scanned);
    set m "csv_stream.rows_dropped" (float_of_int d.dropped);
    set m "finalize.candidates" (float_of_int d.raw);
    set m "finalize.matches" (float_of_int (List.length d.matches));
    set m "telemetry.recording_overhead_pct"
      (recording_overhead (fun telemetry ->
           ignore (stream ~options:{ Engine.default_options with telemetry } ())));
    let rel = ok "csv" (Ses_store.Csv.load path) in
    set_bounds t m d.pattern rel ~peak:d.metrics.max_simultaneous_instances
  end;
  (t, m)
