open Ses_event
open Ses_pattern

(* A transition is key-pinned when its condition set forces the bound
   event's key field to equal the key of an event already in the buffer:
   an equality on (key, key) between the transition's variable and a
   variable of the source state. Reflexive conditions do not pin (they
   compare the new event with itself), and neither does anything
   involving an unbound variable — condition attachment already excludes
   those. *)
let pinned key (tr : Automaton.transition) =
  List.exists
    (fun (c : Condition.t) ->
      c.op = Predicate.Eq
      && Schema.Field.equal c.field key
      && (match c.rhs with
         | Condition.Var (_, f') -> Schema.Field.equal f' key
         | Condition.Const _ -> false)
      &&
      match Condition.other_var c tr.var with
      | Some v' -> Varset.mem v' tr.src
      | None -> false)
    tr.conds

let candidate_fields p =
  List.sort_uniq Schema.Field.compare
    (List.filter_map
       (fun (c : Condition.t) ->
         match c.rhs with
         | Condition.Var (_, f')
           when c.op = Predicate.Eq && Schema.Field.equal c.field f'
                && c.field <> Schema.Field.Timestamp ->
             Some c.field
         | Condition.Var _ | Condition.Const _ -> None)
       (Pattern.conditions p))

(* A negation guard is key-pinned when it equates the forbidden event's
   key with an earlier positive variable's key: only same-key events can
   then kill, so per-key pools stay equivalent. *)
let negation_pinned p key =
  List.for_all
    (fun (_, nv) ->
      List.exists
        (fun (c : Condition.t) ->
          c.op = Predicate.Eq
          && Schema.Field.equal c.field key
          && (match c.rhs with
             | Condition.Var (_, f') -> Schema.Field.equal f' key
             | Condition.Const _ -> false)
          && Condition.other_var c nv <> None)
        (Pattern.conditions_on p nv))
    (Pattern.negations p)

let partition_key automaton =
  let p = Automaton.pattern automaton in
  let non_start =
    List.filter
      (fun (tr : Automaton.transition) ->
        not (Varset.is_empty tr.src))
      (Automaton.transitions automaton)
  in
  List.find_opt
    (fun field ->
      List.for_all (pinned field) non_start && negation_pinned p field)
    (candidate_fields p)

(* Incremental interface: the instance pool splits lazily — a key's pool
   is opened the first time one of its events arrives. [keyed] is the
   unit of both the sequential layout (one [keyed] holds every key) and
   the domain-sharded layout (one [keyed] per worker domain, holding the
   keys hashed to it); in the sharded case it is touched only by its
   owning worker while the pool runs. *)

type keyed = {
  field : Schema.Field.t;
  pools : (Value.t, Engine.stream) Hashtbl.t;
  mutable order : Engine.stream list;  (* creation order, newest first *)
  mutable total : int;
  mutable max_total : int;
  pop_global : Telemetry.Gauge.t option;
      (* the cross-shard population gauge, shared by every [keyed] of a
         stream: atomic delta-adds from each shard make its peak the
         true global |Ω| peak (at event granularity), where the merged
         [max_total]s only bound it from below. *)
}

let make_keyed ?pop_global field =
  {
    field;
    pools = Hashtbl.create 32;
    order = [];
    total = 0;
    max_total = 0;
    pop_global;
  }

(* Events travel to the workers in per-shard batches through a
   {!Domain_pool.batcher}: a mutex/condition handshake per event would
   cost more than the engine work it ships. The buffer limit is
   [options.batch_size]; quiesce/shutdown flush partial batches through
   the pool's registered flushers. *)

type pools =
  | Single of Engine.stream
  | Keyed of keyed
  | Sharded of {
      field : Schema.Field.t;
      shards : keyed array;
      batcher : Event.t Domain_pool.batcher;  (* producer-side buffers *)
      pool : Event.t array Domain_pool.t;
      mutable flushed : bool;  (* the domains have been joined *)
    }

type stream = {
  automaton : Automaton.t;
  options : Engine.options;
  pools : pools;
}

let pool_of ~options ~automaton (k : keyed) kv =
  match Hashtbl.find_opt k.pools kv with
  | Some pool -> pool
  | None ->
      let pool = Engine.create ~options automaton in
      Hashtbl.add k.pools kv pool;
      k.order <- pool :: k.order;
      pool

(* [Engine.population] is an O(1) counter read on the default indexed
   store, so maintaining the cross-pool total per feed is cheap even
   with many pools. *)
let account (k : keyed) delta =
  k.total <- k.total + delta;
  if k.total > k.max_total then k.max_total <- k.total;
  match k.pop_global with
  | None -> ()
  | Some g -> Telemetry.Gauge.add g delta

let feed_keyed ~options ~automaton (k : keyed) e =
  let pool = pool_of ~options ~automaton k (Event.get e k.field) in
  let before = Engine.population pool in
  let completed = Engine.feed pool e in
  account k (Engine.population pool - before);
  completed

(* Route a chunk to its per-key pools as sub-batches: events are grouped
   by key value and each pool consumes its sub-array through
   {!Engine.feed_batch}, so the per-batch amortizations compose with
   partitioning. Pools are independent and each still sees exactly its
   key's events in arrival order; only the accounting granularity
   changes — [total]/[max_total] and the global gauge move once per
   (pool, chunk) instead of once per event, so the recorded peak is a
   lower bound on the per-event one. *)
let feed_keyed_batch ~options ~automaton (k : keyed) (es : Event.t array) =
  if Array.length es = 0 then []
  else begin
    let groups : (Value.t, Event.t list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    (* key first-appearance order, newest first *)
    Array.iter
      (fun e ->
        let kv = Event.get e k.field in
        match Hashtbl.find_opt groups kv with
        | Some sub -> sub := e :: !sub
        | None ->
            Hashtbl.add groups kv (ref [ e ]);
            order := kv :: !order)
      es;
    List.concat_map
      (fun kv ->
        let sub = Array.of_list (List.rev !(Hashtbl.find groups kv)) in
        let pool = pool_of ~options ~automaton k kv in
        let before = Engine.population pool in
        let completed = Engine.feed_batch pool sub in
        account k (Engine.population pool - before);
        completed)
      (List.rev !order)
  end

let close_keyed (k : keyed) =
  let flushed =
    List.concat_map (fun pool -> Engine.close pool) (List.rev k.order)
  in
  (match k.pop_global with
  | None -> ()
  | Some g -> Telemetry.Gauge.add g (-k.total));
  k.total <- 0;
  flushed

let keyed_streams (k : keyed) = List.rev k.order

let keyed_metrics (k : keyed) =
  {
    (Metrics.merge (List.map Engine.metrics (keyed_streams k))) with
    Metrics.max_simultaneous_instances = k.max_total;
  }

(* Deterministic key→shard routing: [Hashtbl.hash] is structural and
   stable within a program run, so the same key always lands on the same
   worker and each worker sees a fixed, order-preserved subsequence of
   the input. Per-pool execution is then byte-identical to the
   sequential layout — the pools are fully independent, and every pool
   still consumes exactly its key's events, in order. This is the one
   audited routing site where representation hashing is the point
   ([Value.t] keys are canonical by construction), hence the allow. *)
let shard_index ~shards kv =
  (Hashtbl.hash kv [@ses.allow "hashtbl-hash"]) mod shards

let create ?(options = Engine.default_options) ?key automaton =
  let key =
    match key with Some k -> k | None -> partition_key automaton
  in
  (* Resolved only for the keyed layouts: a [Single] fallback already
     reports exact |Ω| through the engine's own [population] gauge. *)
  let pop_global () =
    Option.map
      (fun tl -> Telemetry.gauge tl "population.global")
      options.Engine.telemetry
  in
  let pools =
    match key with
    | None -> Single (Engine.create ~options automaton)
    | Some field when options.Engine.domains <= 1 ->
        Keyed (make_keyed ?pop_global:(pop_global ()) field)
    | Some field ->
        let pop_global = pop_global () in
        let shards =
          Array.init options.Engine.domains (fun _ ->
              make_keyed ?pop_global field)
        in
        (* Spans and histograms are single-writer, so each shard's engine
           streams record through their own forked child; only the atomic
           [pop_global] gauge is shared across domains. *)
        let shard_opts =
          Array.init options.Engine.domains (fun _ ->
              match options.Engine.telemetry with
              | None -> options
              | Some tl ->
                  {
                    options with
                    Engine.telemetry = Some (Telemetry.fork tl);
                  })
        in
        let batch_hist =
          Option.map
            (fun tl -> Telemetry.histogram tl "pool.batch_events")
            options.Engine.telemetry
        in
        (* Workers discard per-batch completions: raw emissions stay in
           each engine stream and are collected by [emitted]/[close]
           after a synchronization point. *)
        let pool =
          Domain_pool.create ?telemetry:options.Engine.telemetry
            ~domains:options.Engine.domains (fun i es ->
              ignore
                (feed_keyed_batch ~options:shard_opts.(i) ~automaton
                   shards.(i) es))
        in
        let batcher =
          Domain_pool.batcher ?hist:batch_hist
            ~limit:(max 1 options.Engine.batch_size) pool
        in
        Sharded { field; shards; batcher; pool; flushed = false }
  in
  { automaton; options; pools }

let key st =
  match st.pools with
  | Single _ -> None
  | Keyed k -> Some k.field
  | Sharded s -> Some s.field

let n_domains st =
  match st.pools with
  | Single _ | Keyed _ -> 1
  | Sharded s -> Array.length s.shards

let n_pools st =
  match st.pools with
  | Single _ -> 1
  | Keyed k -> Hashtbl.length k.pools
  | Sharded s ->
      Array.fold_left
        (fun acc (k : keyed) -> acc + Hashtbl.length k.pools)
        0 s.shards

let feed st e =
  match st.pools with
  | Single s -> Engine.feed s e
  | Keyed k -> feed_keyed ~options:st.options ~automaton:st.automaton k e
  | Sharded s ->
      if s.flushed then
        invalid_arg "Partitioned.feed: stream is closed"
      else begin
        let kv = Event.get e s.field in
        Domain_pool.push s.batcher
          (shard_index ~shards:(Array.length s.shards) kv)
          e;
        (* Completions are reported at [close]/[emitted]: the worker
           consumes the event asynchronously. *)
        []
      end

let feed_batch st es =
  match st.pools with
  | Single s -> Engine.feed_batch s es
  | Keyed k ->
      feed_keyed_batch ~options:st.options ~automaton:st.automaton k es
  | Sharded s ->
      if s.flushed then
        invalid_arg "Partitioned.feed_batch: stream is closed"
      else begin
        (* The batcher re-chunks per shard, so routing a whole input
           batch costs one pass; each worker receives sub-batches of its
           own keys only, in arrival order. *)
        let shards = Array.length s.shards in
        Array.iter
          (fun e ->
            let kv = Event.get e s.field in
            Domain_pool.push s.batcher (shard_index ~shards kv) e)
          es;
        []
      end

let close st =
  match st.pools with
  | Single s -> Engine.close s
  | Keyed k -> close_keyed k
  | Sharded s ->
      (* [shutdown] flushes the registered batcher before closing the
         queues, so a partial producer batch is never stranded. *)
      Domain_pool.shutdown s.pool;
      if s.flushed then []
      else begin
        s.flushed <- true;
        List.concat_map close_keyed (Array.to_list s.shards)
      end

let ordered_streams st =
  match st.pools with
  | Single s -> [ s ]
  | Keyed k -> keyed_streams k
  | Sharded s ->
      (* A no-op once the pool is shut down; otherwise flushes any
         buffered events and blocks until the workers drain, making
         shard state safe to read. *)
      Domain_pool.quiesce s.pool;
      List.concat_map keyed_streams (Array.to_list s.shards)

let emitted st = List.concat_map Engine.emitted (ordered_streams st)

let accepting st = List.concat_map Engine.accepting (ordered_streams st)

let population st =
  match st.pools with
  | Single s -> Engine.population s
  | Keyed k -> k.total
  | Sharded s ->
      Domain_pool.quiesce s.pool;
      Array.fold_left (fun acc (k : keyed) -> acc + k.total) 0 s.shards

let metrics st =
  match st.pools with
  | Single s -> Engine.metrics s
  | Keyed k -> keyed_metrics k
  | Sharded s ->
      Domain_pool.quiesce s.pool;
      Metrics.merge (List.map keyed_metrics (Array.to_list s.shards))

let run ?(options = Engine.default_options) automaton events =
  let p = Automaton.pattern automaton in
  let st = create ~options automaton in
  Seq.iter (fun e -> ignore (feed st e)) events;
  ignore (close st);
  let raw = emitted st in
  let matches =
    if options.Engine.finalize then
      Substitution.finalize ~policy:options.Engine.policy p raw
    else raw
  in
  { Engine.matches; raw; metrics = metrics st }

let run_relation ?options automaton relation =
  run ?options automaton (Relation.to_seq relation)
