(* q1_group: the paper's Q1 ⟨{c, p+, d}, {b}⟩ — a group variable with
   per-patient ID joins — over a generated chemotherapy relation,
   through the `ses match -d` default path: Csv.load →
   Access_exec.prepare → Access_exec.run (Auto access and strategy),
   finalize included. Engine consume dominates; the store is a few
   percent. *)

open Ses_event
open Ses_pattern
open Ses_core
open Ses_harness
open Perfbench
open Common

let text =
  "PATTERN (c, p+, d) -> (b) WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND \
   b.L = 'B' AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID WITHIN 11 DAYS"

let patients = 100

type setup = {
  rel : Relation.t;
  automaton : Automaton.t;
  prepared : Access_exec.prepared;
  access : Planner.access;
}

(* Everything before the engine can take its first event. *)
let setup (wr : wrap) path =
  let rel = wr.w "csv.load" (fun () -> ok "csv" (Ses_store.Csv.load path)) in
  let pattern =
    wr.w "lang.parse" (fun () ->
        ok "query" (Ses_lang.Lang.parse_pattern (Relation.schema rel) text))
  in
  let automaton = wr.w "automaton.build" (fun () -> Automaton.of_pattern pattern) in
  let prepared = wr.w "access_exec.prepare" (fun () -> Access_exec.prepare rel) in
  let plan = wr.w "planner.plan" (fun () -> Planner.plan automaton) in
  let access =
    wr.w "planner.choose_access" (fun () ->
        Planner.choose_access ~stats:(Access_exec.stats prepared) plan automaton)
  in
  { rel; automaton; prepared; access }

type pass = {
  matches : Substitution.t list;
  raw : int;
  durations : float array;
  spans : (int * int) array;
  metrics : Metrics.snapshot;
  candidates : int;
  postings_scanned : int;
  clipped : int;
}

(* Access_exec.run's steps, called one by one so each call can be timed
   and each batch's emissions traced back to their trigger events. *)
let decomposed (wr : wrap) s =
  let pattern = Automaton.pattern s.automaton in
  let tau = Pattern.tau pattern in
  let c = calls () in
  let events, postings_scanned, clipped =
    match s.access with
    | Planner.Scan _ -> (Relation.events s.rel, 0, 0)
    | Planner.Index_probe { probes; _ } ->
        let _, sp =
          call c (fun () ->
              wr.w "access_exec.materialize" (fun () ->
                  Access_exec.materialize s.prepared probes ~tau))
        in
        (sp.candidates, sp.postings_scanned, sp.clipped)
  in
  let _, exec =
    call c (fun () -> wr.w "executor.create" (fun () -> Executor.create `Auto s.automaton))
  in
  let first, starts, emitted =
    feed_recorded c ~batch:Engine.default_batch_size events ~feed:(fun chunk ->
        wr.w "executor.feed_batch" (fun () -> Executor.feed_batch exec chunk))
  in
  let closed = call c (fun () -> wr.w "executor.close" (fun () -> Executor.close exec)) in
  let _, (raw, matches) =
    call c (fun () ->
        wr.w "finalize" (fun () ->
            let raw = Executor.emitted exec in
            (raw, Substitution.finalize pattern raw)))
  in
  let tagged =
    List.concat_map
      (fun (i, substs) -> List.map (fun s -> (i, tau, s)) substs)
      (emitted @ [ closed ])
  in
  {
    matches;
    raw = List.length raw;
    durations = durations c;
    spans = trigger_spans ~ts:(timestamps events) ~starts ~first tagged;
    metrics = Executor.metrics exec;
    candidates = Array.length events;
    postings_scanned;
    clipped;
  }

let run ctx =
  Ses_analysis.Analyzer.register ();
  let t = tally () and m = metrics () in
  let path = generate ctx "chemo" patients in
  let reference = setup untraced path in
  let n_events = Relation.cardinality reference.rel in
  if not ctx.trace then begin
    (* Each pass is one `ses match -d` invocation: fresh set-up (timed
       on its own, three times), then Access_exec.run's steps as timed calls. Only
       the first pass is kept; later passes are checked against it. *)
    let first = ref None in
    let runs =
      passes ~seconds:ctx.seconds ~min_reps:3 (fun () ->
          let s, setups = timed_setups (fun () -> setup untraced path) in
          let d = decomposed untraced s in
          (match !first with
          | None -> first := Some (d, peak_rss_mb "self")
          | Some (f, _) -> check t "pass = first pass" (same_substs d.matches f.matches));
          (d.durations, setups))
    in
    let setups = List.concat_map (fun ((_, s), _) -> s) runs in
    let d, rss = Option.get !first in
    let scan =
      Access_exec.run ~strategy:`Plain ~mode:`Scan reference.prepared reference.automaton
    in
    check t "decomposed calls = forced-scan Plain" (same_substs d.matches scan.matches);
    check t "Access_exec.run (Auto) = forced-scan Plain"
      (same_substs (Access_exec.run reference.prepared reference.automaton).matches scan.matches);
    set m ~samples:(List.length setups) "setup_s" (fast_duration setups);
    set m "peak_rss_mb" rss;
    set_timeline t m ~events:n_events (List.map (fun ((d, _), _) -> d) runs) d.spans
  end
  else begin
    let (_ : pass), untraced_s =
      time (fun () -> decomposed untraced (setup untraced path))
    in
    let rec_ = Spans.create ~run_id:ctx.run_id () in
    let wr = traced rec_ in
    let (s, d), traced_s =
      time (fun () ->
          wr.w root_span (fun () ->
              let s = setup wr path in
              (s, decomposed wr s)))
    in
    let spans = Spans.spans rec_ in
    write_spans ctx spans;
    set_layers m spans ~traced_s ~untraced_s;
    check t "traced decomposed run = untraced reference"
      (same_substs d.matches (Access_exec.run reference.prepared reference.automaton).matches);
    set_engine m d.metrics;
    set m "access_exec.candidates" (float_of_int d.candidates);
    set m "access_exec.postings_scanned" (float_of_int d.postings_scanned);
    set m "access_exec.clipped" (float_of_int d.clipped);
    set m "finalize.candidates" (float_of_int d.raw);
    set m "finalize.matches" (float_of_int (List.length d.matches));
    set_bounds t m (Automaton.pattern s.automaton) s.rel
      ~peak:d.metrics.max_simultaneous_instances;
    set m "telemetry.recording_overhead_pct"
      (recording_overhead (fun telemetry ->
           let options = { Engine.default_options with telemetry } in
           ignore (Access_exec.run ~options reference.prepared reference.automaton)))
  end;
  (t, m)
