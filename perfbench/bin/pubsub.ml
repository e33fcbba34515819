(* pubsub_1000q: 1000 queries from two templates — 2-set and 3-set
   label sequences — over a seeded 20k-event
   random stream, through Multi.create_mixed ~shared:true and
   Multi.feed_batch. Exercises Shared_plan and Predicate_index, and puts
   real work (1000 parses and automaton builds, the shared-plan build)
   into set-up. *)

open Ses_event
open Ses_core
open Perfbench
open Common
module RW = Ses_gen.Random_workload

let n_queries = 1000

let spec =
  { RW.n_events = 20_000; n_labels = 26; n_ids = 8; min_gap = 0; max_gap = 2; max_value = 9 }

let options = { Engine.default_options with Engine.filter = Event_filter.Strong }

(* Query texts: two fixed templates over label and threshold constants;
   the seed drives the event stream. *)
let queries =
  let lbl i = String.make 1 (Char.chr (Char.code 'a' + (i mod 26))) in
  List.init n_queries (fun i ->
      let k = i / 2 in
      let text =
        if i mod 2 = 0 then
          Printf.sprintf "PATTERN (p) -> (s) WHERE p.L = '%s' AND s.L = '%s' WITHIN 6" (lbl k)
            (lbl (k / 26))
        else
          Printf.sprintf
            "PATTERN (p) -> (s) -> (r) WHERE p.L = '%s' AND s.L = '%s' AND r.L = '%s' AND \
             r.V >= %d WITHIN 8"
            (lbl k) (lbl (k / 26)) (lbl (k / 2)) (1 + (k mod 5))
      in
      (Printf.sprintf "q%04d" i, text))

let compile (wr : wrap) texts =
  List.map
    (fun (name, text) ->
      let p =
        wr.w "lang.parse" (fun () -> ok name (Ses_lang.Lang.parse_pattern RW.schema text))
      in
      (name, p, wr.w "automaton.build" (fun () -> Automaton.of_pattern p)))
    texts

let create (wr : wrap) ~shared compiled =
  wr.w "multi.create" (fun () ->
      Multi.create_mixed ~options ~shared (List.map (fun (n, _, a) -> (n, a, `Plain)) compiled))

(* Feed, close, finalize: the timed calls of a pass. Returns the
   outcomes and the bookkeeping {!spans} needs. *)
let feed (wr : wrap) c multi events =
  let first, starts, emitted =
    feed_recorded c ~batch:Engine.default_batch_size events ~feed:(fun chunk ->
        wr.w "multi.feed_batch" (fun () -> Multi.feed_batch multi chunk))
  in
  let closed = call c (fun () -> wr.w "multi.close" (fun () -> Multi.close multi)) in
  let _, outcomes = call c (fun () -> wr.w "finalize" (fun () -> Multi.outcomes multi)) in
  (outcomes, (first, starts, emitted @ [ closed ]))

(* Which calls each emission spans, each tagged with its query's
   window. *)
let spans ~tau_of events (first, starts, emitted) =
  let tagged =
    List.concat_map
      (fun (c, per_query) ->
        List.concat_map
          (fun (q, substs) -> List.map (fun s -> (c, tau_of q, s)) substs)
          per_query)
      emitted
  in
  trigger_spans ~ts:(timestamps events) ~starts ~first tagged

let same_outcomes a b =
  List.equal
    (fun (n, (x : Engine.outcome)) (n', (y : Engine.outcome)) ->
      String.equal n n' && same_substs x.matches y.matches && same_substs x.raw y.raw)
    a b

let run ctx =
  let t = tally () and m = metrics () in
  let rel = RW.relation (Ses_gen.Prng.create (Int64.of_int ctx.seed)) spec in
  let events = Relation.events rel in
  let n_events = Array.length events in
  let texts = queries in
  let taus = Hashtbl.create n_queries in
  List.iter
    (fun (n, p, _) -> Hashtbl.replace taus n (Ses_pattern.Pattern.tau p))
    (compile untraced texts);
  let tau_of q = Hashtbl.find taus q in
  if not ctx.trace then begin
    (* A pass = compile + shared-plan build (set-up, timed three times)
       + the timed calls: feed, close and finalize. Only the first
       pass's outcomes and spans are kept; later passes are checked
       against them and dropped, so memory does not grow with passes. *)
    let first = ref None in
    let runs =
      passes ~seconds:ctx.seconds ~min_reps:3 (fun () ->
          let multi, setups =
            timed_setups (fun () -> create untraced ~shared:true (compile untraced texts))
          in
          let c = calls () in
          let outcomes, fed = feed untraced c multi events in
          (match !first with
          | None ->
              let rss = peak_rss_mb "self" in
              first := Some (outcomes, spans ~tau_of events fed, rss)
          | Some (f, _, _) -> check t "pass = first pass" (same_outcomes outcomes f));
          (durations c, setups))
    in
    let setups = List.concat_map (fun ((_, s), _) -> s) runs in
    let first_outcomes, first_spans, rss = Option.get !first in
    let independent =
      let multi = create untraced ~shared:false (compile untraced texts) in
      fst (feed untraced (calls ()) multi events)
    in
    check t "shared = independent" (same_outcomes first_outcomes independent);
    set m ~samples:(List.length setups) "setup_s" (fast_duration setups);
    set m "peak_rss_mb" rss;
    set_timeline t m ~events:n_events (List.map (fun ((d, _), _) -> d) runs) first_spans
  end
  else begin
    let run_once wr =
      let compiled = compile wr texts in
      let multi = create wr ~shared:true compiled in
      (compiled, multi, fst (feed wr (calls ()) multi events))
    in
    let (_, _, reference), untraced_s = time (fun () -> run_once untraced) in
    let rec_ = Spans.create ~run_id:ctx.run_id () in
    let wr = traced rec_ in
    let (compiled, multi, outcomes), traced_s =
      time (fun () -> wr.w root_span (fun () -> run_once wr))
    in
    let spans = Spans.spans rec_ in
    write_spans ctx spans;
    set_layers m spans ~traced_s ~untraced_s;
    check t "traced run = untraced run" (same_outcomes outcomes reference);
    set_engine m (Multi.merged_metrics multi);
    let raw = List.fold_left (fun n (_, (o : Engine.outcome)) -> n + List.length o.raw) 0 outcomes in
    let matches =
      List.fold_left (fun n (_, (o : Engine.outcome)) -> n + List.length o.matches) 0 outcomes
    in
    set m "finalize.candidates" (float_of_int raw);
    set m "finalize.matches" (float_of_int matches);
    (match Multi.shared_stats multi with
    | [ s ] ->
        set m "predicate_index.evaluated" (float_of_int s.Shared_plan.st_index_evaluated);
        set m "predicate_index.saved" (float_of_int s.st_index_saved);
        set m "predicate_index.hit_rate" s.st_index_hit_rate;
        set m "shared_plan.merged_groups" (float_of_int s.st_merged_groups)
    | _ -> check t "one sequential shared plan" false);
    set_bounds_sum t m
      (List.map
         (fun (n, p, _) ->
           let o : Engine.outcome = List.assoc n outcomes in
           (p, rel, o.metrics.max_simultaneous_instances))
         compiled)
  end;
  (t, m)
