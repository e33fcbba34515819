(* Shared plumbing for the workloads: clocks, process counters, timed
   repetition, scratch files, input generation in a child process, and
   the helpers every workload uses to check and summarise its output. *)

open Ses_event
open Ses_core
open Perfbench

type ctx = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  ses : string;  (* the ses CLI, for the server workload *)
  run_id : string;
  scratch : string;  (* per-run directory for generated inputs *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let fail fmt = Printf.ksprintf failwith fmt

let ok what = function Ok v -> v | Error e -> fail "%s: %s" what e

(* --- process counters from /proc --------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let words l =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l))
  in
  match
    List.find_map
      (fun l -> match words l with [ "VmHWM:"; kb; "kB" ] -> Some kb | _ -> None)
      (String.split_on_char '\n' (read_file path))
  with
  | Some kb -> float_of_string kb /. 1024.
  | None -> fail "no VmHWM in %s" path

(* User + system CPU seconds of a process (clock ticks at the usual
   100 Hz). Fields after the parenthesised command name: state is the
   first, utime the 12th, stime the 13th. *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex stat ')' in
  let rest = String.sub stat (close + 2) (String.length stat - close - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string fields.(11) +. float_of_string fields.(12) |> fun ticks -> ticks /. 100.

(* --- repetition --------------------------------------------------- *)

(* Runs [f] until [seconds] have elapsed and at least [min_reps] times;
   each result with its duration. Every pass starts from a compacted
   heap, so no pass pays for its predecessor's garbage. Peak resident
   memory is read after the first pass: the peak of one run of the
   path, as a process running it once sees it. Later passes in the same
   process raise it by an amount that varies from run to run and levels
   off with passes (scan_1m: ~17 MB after one pass, 22-26 MB after
   twenty). *)
let passes ~seconds ~min_reps f =
  let t0 = now () in
  let rec go acc n =
    if n >= min_reps && now () -. t0 >= float_of_int seconds then List.rev acc
    else begin
      Gc.compact ();
      let r, dt = time f in
      go ((r, dt) :: acc) (n + 1)
    end
  in
  go [] 0

(* Interference from other tenants of the host only ever slows a pass
   down, by up to half, in phases lasting from seconds to tens of
   seconds; a whole quartile of a run's passes can fall in one. The
   best sample is steady under that noise where a quartile is not, so
   repeated set-up times read at their minimum, and passes at their
   best timeline ({!set_timeline}). *)
let fast_duration l = List.fold_left Float.min Float.infinity l

(* Set-up timed several times in each pass, so its samples spread over
   the whole run: the last result, and every duration. *)
let timed_setups f =
  let rec go n acc =
    let r, dt = time f in
    if n = 1 then (r, dt :: acc) else go (n - 1) (dt :: acc)
  in
  go 3 []

(* --- scratch files and generated inputs ---------------------------- *)

let out_root = "_perfbench_out"

let mkdir_p dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let children : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    (* Already collected by a WNOHANG poll that saw it exit. *)
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WSIGNALED 0
  in
  let st = wait () in
  children := List.filter (fun p -> p <> pid) !children;
  st

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !children

let spawn prog args ~stdout =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) devnull stdout stdout)
  in
  children := pid :: !children;
  pid

(* Writes an input CSV in a child process of this executable, so the
   measured process never holds the generator's copy of the data. *)
let generate ctx kind size =
  let path = Filename.concat ctx.scratch (Printf.sprintf "%s-%d.csv" kind size) in
  let pid =
    spawn Sys.executable_name
      [ "gen"; kind; string_of_int ctx.seed; string_of_int size; path ]
      ~stdout:Unix.stderr
  in
  (match reap pid with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "generating %s input failed" kind);
  path

(* --- output checks and summaries ------------------------------------ *)

let canonical_set substs =
  List.sort Substitution.compare_canonical (List.map Substitution.canonical substs)

let same_substs a b =
  List.equal (List.equal (fun (v, s) (v', s') -> v = v' && s = s')) (canonical_set a) (canonical_set b)

(* Counts operations and failures against them. *)
type tally = { mutable attempted : int; mutable failed : int; mutable flags : string list }

let tally () = { attempted = 0; failed = 0; flags = [] }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.flags <- ("gate failed: " ^ what) :: t.flags;
    Printf.eprintf "perfbench: gate failed: %s\n%!" what
  end

let flag t msg = t.flags <- msg :: t.flags

(* A metric table: name ↦ value with its sample count. *)
type metrics = (string, float * int) Hashtbl.t

let metrics () : metrics = Hashtbl.create 64

let set (m : metrics) ?(samples = 1) name v = Hashtbl.replace m name (v, samples)

(* A percentile metric, flagged when its sample does not support it. *)
let set_pct t m name ~scale samples p =
  let r = Percentile.of_samples samples p in
  if r.samples = 0 then flag t (Printf.sprintf "%s: no samples" name)
  else if not r.supported then
    flag t
      (Printf.sprintf "%s: %d samples, fewer than the %d this percentile needs" name
         r.samples (Percentile.min_samples p));
  set m ~samples:r.samples name (if r.samples = 0 then 0. else r.value *. scale)

let set_engine m (s : Metrics.snapshot) =
  set m "engine.instances_created" (float_of_int s.instances_created);
  set m "engine.transitions_fired" (float_of_int s.transitions_fired);
  set m "engine.peak_instances" (float_of_int s.max_simultaneous_instances);
  set m "engine.instances_expired" (float_of_int s.instances_expired);
  set m "engine.raw_emitted" (float_of_int s.matches_emitted);
  set m "engine.raw_per_instance"
    (if s.instances_created = 0 then 0.
     else float_of_int s.matches_emitted /. float_of_int s.instances_created)

(* The per-layer split of a traced run: each layer's self time (metric
   name ↦ the span names it sums), the share of the untraced wall time
   the layers cover, and the tracing overhead against the same work
   untraced. Every traced run wraps its calls in one [run] root span. *)
let layer_spans =
  [
    ("csv.load_s", [ "csv.load" ]);
    ("csv_stream.next_batch_s", [ "csv_stream.next_batch" ]);
    ("access_exec.prepare_s", [ "access_exec.prepare" ]);
    ("planner.plan_s", [ "planner.plan"; "planner.choose_access" ]);
    ("access_exec.materialize_s", [ "access_exec.materialize" ]);
    ("lang.parse_s", [ "lang.parse" ]);
    ("automaton.build_s", [ "automaton.build" ]);
    ("executor.feed_batch_s", [ "executor.feed_batch" ]);
    ("executor.close_s", [ "executor.close" ]);
    ("finalize_s", [ "finalize" ]);
    ("multi.create_s", [ "multi.create" ]);
    ("multi.feed_batch_s", [ "multi.feed_batch" ]);
    ("multi.close_s", [ "multi.close" ]);
    ("runtime.input_s", [ "runtime.input" ]);
    ("runtime.tick_s", [ "runtime.tick" ]);
    ("runtime.take_output_s", [ "runtime.take_output" ]);
  ]

let root_span = "run"

let set_layers m spans ~traced_s ~untraced_s =
  let layers = Spans.layers spans in
  List.iter
    (fun (metric, span_names) ->
      let self, calls =
        List.fold_left
          (fun (s, c) (l : Spans.layer) ->
            if List.mem l.layer span_names then (s + l.self_ns, c + l.calls) else (s, c))
          (0, 0) layers
      in
      set m ~samples:calls metric (float_of_int self /. 1e9))
    layer_spans;
  let covered =
    List.fold_left
      (fun acc (l : Spans.layer) -> if String.equal l.layer root_span then acc else acc + l.self_ns)
      0 layers
  in
  set m "trace.coverage_pct" (100. *. float_of_int covered /. 1e9 /. untraced_s);
  set m "trace.overhead_pct" (100. *. (traced_s -. untraced_s) /. untraced_s);
  let feed = Spans.durations spans "executor.feed_batch" in
  if Array.length feed > 0 then
    set m ~samples:(Array.length feed) "executor.feed_batch_p99_us"
      ((Percentile.of_samples feed 0.99).value *. 1e6)

let write_spans ctx spans =
  let path = Filename.concat out_root (Printf.sprintf "trace-%s.tsv" ctx.run_id) in
  Out_channel.with_open_bin path (fun oc -> Spans.write_tsv oc spans)

(* A polymorphic call wrapper: identity untraced, a span when traced. *)
type wrap = { w : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { w = (fun _ f -> f ()) }

let traced rec_ = { w = (fun name f -> Spans.with_span rec_ name f) }

(* --- timed calls and the best timeline ---------------------------- *)

(* The durations of a pass's timed calls, in order. *)
type calls = { mutable durations : float list; mutable count : int }

let calls () = { durations = []; count = 0 }

(* Runs [f] as the pass's next timed call: its index and its result. *)
let call c f =
  let t0 = now () in
  let r = f () in
  c.durations <- (now () -. t0) :: c.durations;
  c.count <- c.count + 1;
  (c.count - 1, r)

let durations c = Array.of_list (List.rev c.durations)

(* Which calls each in-process match spans. [starts] holds the first
   position in the fed stream of each call that handed events over,
   [first] that first call's index among the pass's timed calls, [ts]
   the fed stream's timestamps; [received] pairs each emitted match
   (with its query's window) with the index of the call that returned
   it — a feed call, or close for executors that hold emissions until
   the end. A match whose trigger sits in feed call [b] waited from the
   start of that call; matches without a trigger (flushed at end of
   input) have no latency. *)
let trigger_spans ~ts ~starts ~first received =
  Array.of_list
    (List.filter_map
       (fun (upto, tau, subst) ->
         match Substitution.min_ts subst with
         | None -> None
         | Some from ->
             Option.map
               (fun i -> (first + Trigger.segment_of starts i, upto))
               (Trigger.first_after ts ~from ~tau))
       received)

(* Feeds [events] in fixed-size batches through [feed], one timed call
   each. Returns the index of the first call, each call's first
   position in [events], and each call's emissions with its index. *)
let feed_recorded c ~feed ~batch (events : Event.t array) =
  let n = Array.length events in
  let k = (n + batch - 1) / batch in
  let starts = Array.init k (fun j -> j * batch) in
  let first = c.count in
  let emitted =
    List.init k (fun j ->
        let chunk = Array.sub events starts.(j) (min batch (n - starts.(j))) in
        call c (fun () -> feed chunk))
  in
  (first, starts, emitted)

(* Throughput and detection latency of an in-process workload, read on
   the best timeline of its passes (see {!Timeline}): [per_pass] holds
   each pass's call durations, [spans] which calls each match spans
   (the same in every pass: same code, same input). *)
let set_timeline t m ~events per_pass spans =
  let best = Timeline.best per_pass in
  check t "every pass made the same timed calls" (Option.is_some best);
  let ordered = Array.for_all (fun (from, upto) -> from <= upto) spans in
  check t "no match returned before its trigger was handed over" ordered;
  match best with
  | Some best when ordered ->
      set m ~samples:(List.length per_pass) "events_per_s"
        (float_of_int events /. Timeline.total best);
      let lat = Timeline.latencies best spans in
      set_pct t m "match_latency_p50_ms" ~scale:1e3 lat 0.5;
      set_pct t m "match_latency_p99_ms" ~scale:1e3 lat 0.99
  | _ -> ()

let timestamps (events : Event.t array) = Array.map Event.ts events

(* The measured instance peak beside the Theorems 1–3 bound at the
   Def. 5 window (summed over queries for multi-query workloads). An
   infinite bound reads as ratio 0 and is flagged as infinite. *)
let set_bounds_sum t m items =
  let peak, bound, w =
    List.fold_left
      (fun (p, b, w) (pattern, rel, peak) ->
        let wi = Relation.window_size rel (Ses_pattern.Pattern.tau pattern) in
        (p + peak, b +. Ses_harness.Bounds.overall pattern ~w:wi, max w wi))
      (0, 0., 0) items
  in
  set m "bounds.window" (float_of_int w);
  if Float.is_finite bound then set m "bounds.peak_ratio" (float_of_int peak /. bound)
  else begin
    flag t (Printf.sprintf "bounds.overall: inf at W = %d (peak %d)" w peak);
    set m "bounds.peak_ratio" 0.
  end

let set_bounds t m pattern rel ~peak = set_bounds_sum t m [ (pattern, rel, peak) ]

(* The existing Telemetry recording sink against the no-op sink on the
   same call, alternated twice; the gap between the faster run of each,
   in percent. *)
let recording_overhead f =
  let off = ref [] and on = ref [] in
  for _ = 1 to 2 do
    off := snd (time (fun () -> f None)) :: !off;
    on := snd (time (fun () -> f (Some (Telemetry.create ())))) :: !on
  done;
  let off = fast_duration !off and on = fast_duration !on in
  100. *. (on -. off) /. off
