open Ses_event
open Ses_pattern

type options = {
  filter : Event_filter.mode;
  filter_extras :
    (int * (Schema.Field.t * Predicate.op * Value.t) list) list;
  policy : Substitution.policy;
  finalize : bool;
  precheck_constants : bool;
  domains : int;
  batch_size : int;
  telemetry : Telemetry.sink;
}

(* The default chunk size. Throughput on the million-event duplicated
   workload plateaus from a few dozen events per chunk (64 was the
   fastest batch of the last [bench --batch-only] sweep), and smaller
   chunks keep the working set cache-resident. To re-tune, re-run that
   sweep: it records its measured best batch beside this default and
   adds a warning field when the two differ. *)
let default_batch_size = 64

let default_options =
  {
    filter = Event_filter.No_filter;
    filter_extras = [];
    policy = Substitution.Operational;
    finalize = true;
    precheck_constants = true;
    domains = 1;
    batch_size = default_batch_size;
    telemetry = None;
  }

type observation =
  | Created of Event.t
  | Took of {
      event : Event.t;
      transition : Automaton.transition;
      buffer : Substitution.t;
    }
  | Ignored of {
      event : Event.t;
      state : Varset.t;
      buffer : Substitution.t;
    }
  | Expired of {
      event : Event.t;
      accepting : bool;
      buffer : Substitution.t;
    }
  | Killed of {
      event : Event.t;
      state : Varset.t;
      buffer : Substitution.t;
    }
  | Emitted of Substitution.t

(* Telemetry handles, resolved once per stream so an enabled probe is a
   field read, and a disabled stream pays one branch on [probes]. *)
type probes = {
  filter_span : Telemetry.Span.t;
  transition_span : Telemetry.Span.t;
  expiry_span : Telemetry.Span.t;
  bucket_scan : Telemetry.Histogram.t;
  population_gauge : Telemetry.Gauge.t;
}

type stream = {
  automaton : Automaton.t;
  options : options;
  filter : Event_filter.t;
  k : Kernel.t;
  slots : Kernel.slot array;  (** one per automaton state, ascending state order *)
  start_slot : Kernel.slot;
  fresh : Kernel.instance;
      (** the start-state instance opened for every event; it is immutable
          and never stored, so one allocation serves the whole stream *)
  store : Kernel.instance Instance_store.t;
  probes : probes option;
  mutable emissions : Substitution.t list;  (** newest first *)
  mutable last_ts : Time.t option;
  mutable observer : (observation -> unit) option;
  mutable filter_buf : Event.t array;
      (** scratch for the batched filter pass, grown to the largest chunk
          seen and reused — a fresh per-chunk array above ~256 words would
          land on the major heap and turn steady-state batching into major
          GC churn. Pins at most one chunk's worth of events. *)
}

type outcome = {
  matches : Substitution.t list;
  raw : Substitution.t list;
  metrics : Metrics.snapshot;
}

let create ?(options = default_options) automaton =
  let p = Automaton.pattern automaton in
  let store = Kernel.store () in
  let slots =
    Array.of_list
      (List.map (Kernel.slot automaton store) (Automaton.states automaton))
  in
  let start = Automaton.start automaton in
  {
    automaton;
    options;
    filter = Event_filter.make ~extra:options.filter_extras p options.filter;
    k = Kernel.create ~precheck:options.precheck_constants p;
    slots;
    start_slot =
      List.find
        (fun (s : Kernel.slot) -> Varset.equal s.slot_state start)
        (Array.to_list slots);
    fresh = Kernel.fresh ~n_vars:(Pattern.n_vars p) ~owners:1 start;
    store;
    probes =
      Option.map
        (fun tl ->
          {
            filter_span = Telemetry.span tl "filter";
            transition_span = Telemetry.span tl "transition";
            expiry_span = Telemetry.span tl "expiry";
            bucket_scan = Telemetry.histogram tl "store.bucket_scan";
            population_gauge = Telemetry.gauge tl "population";
          })
        options.telemetry;
    emissions = [];
    last_ts = None;
    observer = None;
    filter_buf = [||];
  }

let set_observer st observer = st.observer <- observer

(* Observations are built only when an observer is installed: most
   carry a copy of the buffer ([Kernel.substitution] reverses it), which
   the unobserved hot path must not pay for. Call sites therefore guard
   on [observed] before building the argument of [observe]. *)
let observed st = Option.is_some st.observer

let observe st obs =
  match st.observer with None -> () | Some f -> f obs

(* Successors stage straight into their target state's interned bucket
   — the per-transition handle resolved at [create]. *)
let stage_succ (pt : Kernel.transition) succ =
  Instance_store.stage_h pt.tgt_bucket succ

(* The per-event path's successor hook: [stage_succ], narrated. *)
let stage_observed st e (pt : Kernel.transition) succ =
  if observed st then
    observe st
      (Took
         {
           event = e;
           transition = pt.transition;
           buffer = Kernel.substitution succ;
         });
  stage_succ pt succ

(* ConsumeEvent through the kernel, narrated. Returns [true] exactly when
   the instance survives unchanged, which lets the store keep untouched
   survivors in bucket order without re-sorting — fired or killed
   instances are consumed (replace-on-fire), a fresh instance is never
   kept. *)
let consume st slot (inst : Kernel.instance) e ~on_succ =
  match Kernel.consume st.k slot inst e ~on_succ with
  | Kernel.Kept ->
      if observed st then
        observe st
          (Ignored
             { event = e; state = inst.state; buffer = Kernel.substitution inst });
      true
  | Kernel.Killed ->
      if observed st then
        observe st
          (Killed
             { event = e; state = inst.state; buffer = Kernel.substitution inst });
      false
  | Kernel.Fired | Kernel.Spent -> false

let emit st inst =
  let subst = Kernel.substitution inst in
  st.emissions <- subst :: st.emissions;
  Metrics.on_match st.k.m;
  observe st (Emitted subst);
  subst

(* An instance popped for τ-expiry on [e]: counted, narrated, and
   emitted when it sits in an accepting slot with its minima met. *)
let expire st completed e (slot : Kernel.slot) inst =
  Metrics.on_expired st.k.m;
  let accepting = slot.accepting && Kernel.accepts st.k inst in
  if observed st then
    observe st
      (Expired { event = e; accepting; buffer = Kernel.substitution inst });
  if accepting then completed := emit st inst :: !completed

let population st = Instance_store.size st.store

(* Algorithm 1's loop body over the state-indexed store. Buckets are
   visited in ascending state order; a bucket is only walked when the
   event could affect it — some transition survived the constant
   pre-check, some negation guard could fire, or an observer wants the
   per-instance [Ignored] narration. Expired instances are popped off
   the sorted prefix without touching the rest. *)
let feed_indexed st e =
  let tau = Automaton.tau st.automaton in
  let completed = ref [] in
  let on_succ = stage_observed st e in
  ignore (consume st st.start_slot st.fresh e ~on_succ);
  Array.iter
    (fun (slot : Kernel.slot) ->
      let bucket = slot.bucket in
      if Instance_store.handle_size bucket > 0 then begin
        let tok =
          match st.probes with
          | None -> 0
          | Some p -> Telemetry.Span.start p.expiry_span
        in
        let dead =
          Instance_store.pop_expired_h bucket ~expired:(fun inst ->
              Kernel.expired tau inst e)
        in
        (match st.probes with
        | None -> ()
        | Some p -> Telemetry.Span.stop p.expiry_span tok);
        List.iter (expire st completed e slot) dead;
        let scan =
          Kernel.candidates st.k slot e <> []
          || Kernel.guards_may_fire st.k slot e
          || observed st
        in
        if scan && Instance_store.handle_size bucket > 0 then begin
          let tok =
            match st.probes with
            | None -> 0
            | Some p ->
                Telemetry.Histogram.observe p.bucket_scan
                  (Instance_store.handle_size bucket);
                Telemetry.Span.start p.transition_span
          in
          let insts = Instance_store.take_all_h bucket in
          let stayed =
            List.filter (fun inst -> consume st slot inst e ~on_succ) insts
          in
          Instance_store.put_back_h bucket stayed;
          match st.probes with
          | None -> ()
          | Some p -> Telemetry.Span.stop p.transition_span tok
        end
      end)
    st.slots;
  Instance_store.commit st.store;
  let n = Instance_store.size st.store in
  Metrics.sample_population st.k.m n;
  (match st.probes with
  | None -> ()
  | Some p -> Telemetry.Gauge.observe p.population_gauge n);
  List.rev !completed

(* One kept (filter-surviving) event entering the pool: bump the stamp
   (invalidating every slot's pre-check caches), account the fresh
   start-state instance, and run the loop. *)
let ingest_kept st e =
  Kernel.tick st.k;
  Metrics.on_instance_created st.k.m;
  observe st (Created e);
  feed_indexed st e

let out_of_order = "Engine.feed: events out of chronological order"

let feed st e =
  (match st.last_ts with
  | Some t when Time.( <. ) (Event.ts e) t -> invalid_arg out_of_order
  | Some _ | None -> ());
  st.last_ts <- Some (Event.ts e);
  Metrics.on_event st.k.m;
  let kept =
    match st.probes with
    | None -> Event_filter.keep st.filter e
    | Some p ->
        let tok = Telemetry.Span.start p.filter_span in
        let kept = Event_filter.keep st.filter e in
        Telemetry.Span.stop p.filter_span tok;
        kept
  in
  if not kept then begin
    Metrics.on_filtered st.k.m;
    []
  end
  else ingest_kept st e

(* The batched loop. Semantics are those of feeding the events one by
   one, with two amortizations that are invisible to the (multiset of)
   emissions and finalized matches:

   - τ-expiry prefixes are popped once per batch (against the batch's
     first timestamp) instead of once per nonempty bucket per event;
     an instance whose window closes mid-batch is caught by the fused
     expiry check the moment its bucket is scanned — so it can never
     consume an event — and otherwise sits passively until the next
     sweep, [close], or a later scan emits it. Only the *position* of
     such an emission in the raw stream can differ from the one-by-one
     order, never its presence.

   - telemetry records per batch: one expiry span for the sweep, one
     transition span covering the whole kept loop (every event's bucket
     scans), and one population gauge observation at batch end.

   The per-event [feed] above remains the reference ordering; [feed_batch]
   falls back to it while an observer is installed so narration order
   stays exact. *)
let feed_indexed_batch st kept n_kept =
  let tau = Automaton.tau st.automaton in
  let completed = ref [] in
  (* Batch-start expiry sweep: one prefix pop per nonempty bucket. *)
  let e0 = kept.(0) in
  let tok =
    match st.probes with
    | None -> 0
    | Some p -> Telemetry.Span.start p.expiry_span
  in
  Array.iter
    (fun (slot : Kernel.slot) ->
      if Instance_store.handle_size slot.bucket > 0 then
        List.iter
          (expire st completed e0 slot)
          (Instance_store.pop_expired_h slot.bucket ~expired:(fun inst ->
               Kernel.expired tau inst e0)))
    st.slots;
  (match st.probes with
  | None -> ()
  | Some p -> Telemetry.Span.stop p.expiry_span tok);
  (* One transition span covers the whole kept loop — per-batch probe
     granularity, like the expiry sweep and the filter pass above. *)
  let tok =
    match st.probes with
    | None -> 0
    | Some p -> Telemetry.Span.start p.transition_span
  in
  for i = 0 to n_kept - 1 do
    let e = kept.(i) in
    Kernel.tick st.k;
    Metrics.on_instance_created st.k.m;
    ignore (consume st st.start_slot st.fresh e ~on_succ:stage_succ);
    Array.iter
      (fun (slot : Kernel.slot) ->
        let bucket = slot.bucket in
        if
          Instance_store.handle_size bucket > 0
          && (Kernel.candidates st.k slot e <> []
             || Kernel.guards_may_fire st.k slot e)
        then begin
          (match st.probes with
          | None -> ()
          | Some p ->
              Telemetry.Histogram.observe p.bucket_scan
                (Instance_store.handle_size bucket));
          let insts = Instance_store.take_all_h bucket in
          let stayed =
            List.filter
              (fun inst ->
                if Kernel.expired tau inst e then begin
                  (* Fused expiry: the window closed mid-batch; emit (if
                     accepting) and drop before it can consume. *)
                  expire st completed e slot inst;
                  false
                end
                else consume st slot inst e ~on_succ:stage_succ)
              insts
          in
          Instance_store.put_back_h bucket stayed
        end)
      st.slots;
    Instance_store.commit st.store;
    Metrics.sample_population st.k.m (Instance_store.size st.store)
  done;
  (match st.probes with
  | None -> ()
  | Some p ->
      Telemetry.Span.stop p.transition_span tok;
      Telemetry.Gauge.observe p.population_gauge
        (Instance_store.size st.store));
  List.rev !completed

let feed_batch st events =
  let n = Array.length events in
  if n = 0 then []
  else begin
    (match st.last_ts with
    | Some t when Time.( <. ) (Event.ts events.(0)) t ->
        invalid_arg out_of_order
    | Some _ | None -> ());
    for i = 1 to n - 1 do
      if Time.( <. ) (Event.ts events.(i)) (Event.ts events.(i - 1)) then
        invalid_arg out_of_order
    done;
    st.last_ts <- Some (Event.ts events.(n - 1));
    Metrics.on_events st.k.m n;
    (* Batch filter pass: one span covers the chunk, and a trivial filter
       costs nothing at all. *)
    let kept, n_kept =
      match st.options.filter with
      | Event_filter.No_filter -> (events, n)
      | Event_filter.Paper | Event_filter.Strong ->
          if Array.length st.filter_buf < n then
            st.filter_buf <- Array.make n events.(0);
          let buf = st.filter_buf in
          let k = ref 0 in
          let run () =
            Array.iter
              (fun e ->
                if Event_filter.keep st.filter e then begin
                  buf.(!k) <- e;
                  incr k
                end)
              events
          in
          (match st.probes with
          | None -> run ()
          | Some p ->
              let tok = Telemetry.Span.start p.filter_span in
              run ();
              Telemetry.Span.stop p.filter_span tok);
          (buf, !k)
    in
    Metrics.on_filtered_many st.k.m (n - n_kept);
    if n_kept = 0 then []
    else if not (observed st) then feed_indexed_batch st kept n_kept
    else begin
      (* Reference ordering for an installed observer: process the chunk
         event by event. *)
      let acc = ref [] in
      for i = 0 to n_kept - 1 do
        acc := List.rev_append (ingest_kept st kept.(i)) !acc
      done;
      List.rev !acc
    end
  end

let close st =
  (* Only the accepting bucket can flush; everything else just dies. *)
  let flushed = ref [] in
  Kernel.flush st.k
    (Instance_store.take_all st.store (Automaton.accept st.automaton))
    ~emit:(fun inst -> flushed := emit st inst :: !flushed);
  Instance_store.clear st.store;
  List.rev !flushed

let accepting st =
  (* [close]'s flush, read in place: nothing is emitted or removed. *)
  let flushed = ref [] in
  Array.iter
    (fun (slot : Kernel.slot) ->
      if slot.accepting then
        Kernel.flush st.k (Instance_store.items_h slot.bucket)
          ~emit:(fun inst -> flushed := Kernel.substitution inst :: !flushed))
    st.slots;
  List.rev !flushed

let population_by_state st =
  let counts =
    Instance_store.fold_buckets
      (fun q insts acc -> (q, List.length insts) :: acc)
      st.store []
  in
  (* Descending by count; equal counts ordered by state so the listing is
     deterministic. *)
  List.sort
    (fun (qa, a) (qb, b) ->
      let c = Int.compare b a in
      if c <> 0 then c else Varset.compare qa qb)
    counts

let metrics st = Metrics.snapshot st.k.m

let emitted st = List.rev st.emissions

let run ?(options = default_options) automaton events =
  let st = create ~options automaton in
  Seq.iter (fun e -> ignore (feed st e)) events;
  ignore (close st);
  let raw = emitted st in
  let finalize () =
    if options.finalize then
      Substitution.finalize ~policy:options.policy
        (Automaton.pattern automaton) raw
    else raw
  in
  let matches =
    match options.telemetry with
    | None -> finalize ()
    | Some tl -> Telemetry.Span.record (Telemetry.span tl "finalize") finalize
  in
  { matches; raw; metrics = metrics st }

let run_relation ?options automaton relation =
  run ?options automaton (Relation.to_seq relation)
