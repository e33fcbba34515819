open Ses_event

(* A shard is the one sequential backend: an optional shared plan beside
   independent executors ("entries"). With [shared = false] there is no
   plan and every query is an entry. With [shared = true] the plan serves
   the queries registered before the first event; queries registered
   later cannot join the already-fed shared population and run as
   entries beside it. The plan's names therefore precede its entries' in
   registration order. *)

type entry = {
  name : string;
  automaton : Automaton.t;
  exec : Executor.packed;
}

type shard = {
  mutable plan : Shared_plan.t option;
  mutable entries : entry list;  (* registration order *)
}

(* Domain-parallel mode: one shard per worker domain, built from
   {!Shared_plan.partition} (every sharing unit kept whole), and the feed
   broadcast to every worker. As in {!Partitioned}'s sharded mode, events
   are shipped in batches through one {!Domain_pool.batcher}, amortising
   the queue handshake; the workers still feed their shards event by
   event, so each query observes the exact per-event sequence and
   parallel metrics equal sequential ones. *)
type pool = {
  workers : Event.t array Domain_pool.t;
  batcher : Event.t Domain_pool.batcher;  (* broadcast buffer *)
  mutable closed : bool;
}

type t = {
  mutable regs : (string * Automaton.t * Executor.strategy) list;
  options : Engine.options;
  shards : shard array;  (* exactly one without a pool *)
  pool : pool option;
}

let validate names =
  if List.exists (fun n -> n = "") names then
    invalid_arg "Multi.create: empty query name";
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Multi.create: duplicate query name"

let plan_regs queries =
  List.map
    (fun (name, automaton, strategy) ->
      {
        Shared_plan.r_name = name;
        r_automaton = automaton;
        r_strategy = strategy;
      })
    queries

let make_entry options (r : Shared_plan.reg) =
  {
    name = r.r_name;
    automaton = r.r_automaton;
    exec = Executor.create ~options r.r_strategy r.r_automaton;
  }

let make_shard options ~shared regs =
  if shared then
    { plan = Some (Shared_plan.create ~options regs); entries = [] }
  else { plan = None; entries = List.map (make_entry options) regs }

(* Per-name results of one shard: the plan's, then the entries', each in
   registration order. *)
let shard_results sh ~plan ~entries =
  let from_plan = match sh.plan with None -> [] | Some p -> plan p in
  match sh.entries with [] -> from_plan | es -> from_plan @ entries es

let completed f entries =
  List.filter_map
    (fun e -> match f e.exec with [] -> None | out -> Some (e.name, out))
    entries

let feed_shard sh event =
  shard_results sh
    ~plan:(fun p -> Shared_plan.feed p event)
    ~entries:(completed (fun x -> Executor.feed x event))

let create_mixed ?(options = Engine.default_options) ?(shared = true) queries =
  validate (List.map (fun (name, _, _) -> name) queries);
  let regs = plan_regs queries in
  let domains = min options.Engine.domains (List.length queries) in
  if domains <= 1 then
    {
      regs = queries;
      options;
      shards = [| make_shard options ~shared regs |];
      pool = None;
    }
  else begin
    (* The shards are built here, on the calling thread, before the
       workers spawn. Each records through its own telemetry fork
       (written only by its worker) and never nests a second domain
       pool. *)
    let shards =
      Array.map
        (fun regs ->
          let options =
            {
              options with
              Engine.domains = 1;
              telemetry = Option.map Telemetry.fork options.Engine.telemetry;
            }
          in
          make_shard options ~shared regs)
        (Shared_plan.partition ~options ~shards:domains regs)
    in
    let workers =
      Domain_pool.create ?telemetry:options.Engine.telemetry ~domains
        (fun i events ->
          Array.iter (fun e -> ignore (feed_shard shards.(i) e)) events)
    in
    let batch_hist =
      Option.map
        (fun tl -> Telemetry.histogram tl "pool.batch_events")
        options.Engine.telemetry
    in
    let batcher =
      Domain_pool.batcher ?hist:batch_hist
        ~limit:(max 1 options.Engine.batch_size) workers
    in
    {
      regs = queries;
      options;
      shards;
      pool = Some { workers; batcher; closed = false };
    }
  end

let create ?options ?(strategy = `Plain) ?shared queries =
  create_mixed ?options ?shared
    (List.map (fun (name, automaton) -> (name, automaton, strategy)) queries)

let names t = List.map (fun (n, _, _) -> n) t.regs

let strategy_names t =
  List.map (fun (n, _, s) -> (n, Executor.strategy_name s)) t.regs

let n_domains t =
  match t.pool with None -> 1 | Some p -> Domain_pool.size p.workers

(* Per-name results over every shard, in global registration order: a
   lone shard already lists them so, several shards interleave. *)
let gather t f =
  match t.shards with
  | [| sh |] -> f sh
  | shards ->
      let idx = Hashtbl.create 16 in
      List.iteri (fun i (n, _, _) -> Hashtbl.replace idx n i) t.regs;
      List.sort
        (fun (a, _) (b, _) ->
          Int.compare (Hashtbl.find idx a) (Hashtbl.find idx b))
        (List.concat_map f (Array.to_list shards))

(* Pooled reads first wait for the workers: the quiesce handshake makes
   their writes to the shards visible here. *)
let quiesce t = Option.iter (fun p -> Domain_pool.quiesce p.workers) t.pool

let check_open p op =
  if p.closed then invalid_arg ("Multi." ^ op ^ ": query set is closed")

(* Pooled feeds broadcast: every worker receives every event and drives
   its own shard. Per-event completions surface at [close]/[outcomes]. *)
let feed t event =
  match t.pool with
  | None -> feed_shard t.shards.(0) event
  | Some p ->
      check_open p "feed";
      Domain_pool.broadcast p.batcher event;
      []

let feed_batch t events =
  match t.pool with
  | None ->
      shard_results t.shards.(0)
        ~plan:(fun p -> Shared_plan.feed_batch p events)
        ~entries:(completed (fun x -> Executor.feed_batch x events))
  | Some p ->
      check_open p "feed_batch";
      Array.iter (Domain_pool.broadcast p.batcher) events;
      []

let close t =
  let close_all () =
    gather t (fun sh ->
        shard_results sh ~plan:Shared_plan.close
          ~entries:(completed Executor.close))
  in
  match t.pool with
  | None -> close_all ()
  | Some p ->
      (* Join the workers first (shutdown flushes the broadcast batcher
         before closing the queues): afterwards the shards belong to the
         calling thread again. *)
      Domain_pool.shutdown p.workers;
      if p.closed then []
      else begin
        p.closed <- true;
        close_all ()
      end

let population t =
  quiesce t;
  Array.fold_left
    (fun acc sh ->
      List.fold_left
        (fun acc e -> acc + Executor.population e.exec)
        (acc + Option.fold ~none:0 ~some:Shared_plan.population sh.plan)
        sh.entries)
    0 t.shards

let finalized t automaton raw metrics =
  let matches =
    if t.options.Engine.finalize then
      Substitution.finalize ~policy:t.options.Engine.policy
        (Automaton.pattern automaton) raw
    else raw
  in
  { Engine.matches; raw; metrics }

let entry_outcome t e =
  ( e.name,
    finalized t e.automaton (Executor.emitted e.exec) (Executor.metrics e.exec)
  )

(* Finalization needs the whole raw candidate set per query, and aliased
   registrations share identical raw, so a plan's finalize pass is
   memoized per alias id. *)
let plan_outcomes t plan =
  let memo = Hashtbl.create 16 in
  List.map
    (fun (r : Shared_plan.query_result) ->
      let matches =
        if not t.options.Engine.finalize then r.q_raw
        else
          match Hashtbl.find_opt memo r.q_alias with
          | Some m -> m
          | None ->
              let m = (finalized t r.q_automaton r.q_raw r.q_metrics).matches in
              Hashtbl.add memo r.q_alias m;
              m
      in
      (r.q_name, { Engine.matches; raw = r.q_raw; metrics = r.q_metrics }))
    (Shared_plan.results plan)

let outcomes t =
  quiesce t;
  gather t (fun sh ->
      shard_results sh ~plan:(plan_outcomes t)
        ~entries:(List.map (entry_outcome t)))

(* Every query observes the whole feed (shared-mode metrics are
   compensated to the independent view), so the cross-query summary uses
   the replica accounting: input counters agree (max), work counters and
   the simultaneous-instance peaks sum. *)
let merged_metrics t =
  quiesce t;
  Metrics.merge_replicas
    (List.concat_map
       (fun sh ->
         Option.fold ~none:[]
           ~some:(fun p ->
             List.map
               (fun (r : Shared_plan.query_result) -> r.q_metrics)
               (Shared_plan.results p))
           sh.plan
         @ List.map (fun e -> Executor.metrics e.exec) sh.entries)
       (Array.to_list t.shards))

let shared_stats t =
  quiesce t;
  List.filter_map
    (fun sh -> Option.map Shared_plan.stats sh.plan)
    (Array.to_list t.shards)

(* ------------------------------------------------------------------ *)
(* Runtime registration (sequential query sets only).                 *)
(* ------------------------------------------------------------------ *)

let sequential_shard t op =
  match t.pool with
  | Some _ ->
      invalid_arg
        ("Multi." ^ op ^ ": domain-parallel query sets are fixed at creation")
  | None -> t.shards.(0)

let register t ((name, _, _) as query) =
  let sh = sequential_shard t "register" in
  if name = "" then invalid_arg "Multi.register: empty query name";
  if List.exists (fun (n, _, _) -> n = name) t.regs then
    invalid_arg ("Multi.register: duplicate query name " ^ name);
  (match sh.plan with
  | Some p when Shared_plan.events_fed p = 0 && sh.entries = [] ->
      (* Nothing fed yet: rebuild the (empty) plan so the newcomer
         shares fully — "register everything, then feed" gets the same
         plan as creation-time registration. *)
      sh.plan <-
        Some
          (Shared_plan.create ~options:t.options
             (plan_regs (t.regs @ [ query ])))
  | Some _ | None ->
      (* Without a plan, or with a shared population that already
         reflects fed events the newcomer must not observe: run it
         independently. *)
      sh.entries <-
        sh.entries @ List.map (make_entry t.options) (plan_regs [ query ]));
  t.regs <- t.regs @ [ query ]

let unregister t name =
  let sh = sequential_shard t "unregister" in
  let unknown () = invalid_arg ("Multi.unregister: unknown query " ^ name) in
  let outcome =
    match List.find_opt (fun e -> e.name = name) sh.entries with
    | Some e ->
        ignore (Executor.close e.exec);
        sh.entries <- List.filter (fun x -> x.name <> name) sh.entries;
        snd (entry_outcome t e)
    | None -> (
        match sh.plan with
        | None -> unknown ()
        | Some p -> (
            match Shared_plan.retire p name with
            | r -> finalized t r.q_automaton r.q_raw r.q_metrics
            | exception Invalid_argument _ -> unknown ()))
  in
  t.regs <- List.filter (fun (n, _, _) -> n <> name) t.regs;
  outcome

let run ?options ?strategy ?shared queries events =
  let t = create ?options ?strategy ?shared queries in
  (* Chunk the stream through [feed_batch] so the per-batch
     amortizations (shared-plan routing, engine prechecks, telemetry)
     activate here too. *)
  Executor.iter_chunks t.options.Engine.batch_size events (fun chunk ->
      ignore (feed_batch t chunk));
  ignore (close t);
  outcomes t
