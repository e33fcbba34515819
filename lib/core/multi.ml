open Ses_event

(* ------------------------------------------------------------------ *)
(* Independent backend: one executor per registration.                *)
(* ------------------------------------------------------------------ *)

type entry = {
  name : string;
  automaton : Automaton.t;
  exec : Executor.packed;
}

(* In independent-parallel mode every query is pinned to one worker
   domain (round-robin by registration order) and the feed is broadcast:
   each worker runs its queries' executors sequentially over the whole
   stream, exactly as the sequential mode does — only on its own domain.
   Executors are created with [domains = 1] so a partitioned query never
   nests a second domain pool under a Multi worker. *)
(* As in {!Partitioned}'s sharded mode, events are shipped in batches
   through a {!Domain_pool.batcher}: the broadcast buffers up to
   [options.batch_size] events and hands every worker the same array,
   amortising the queue handshake. The workers still feed their
   executors event by event — each query's executor must observe the
   exact per-event sequence so parallel metrics equal sequential ones. *)

type parallel = {
  pool : Event.t array Domain_pool.t;
  groups : entry list array;  (* registration order within a group *)
  batcher : Event.t Domain_pool.batcher;  (* broadcast buffer *)
  mutable flushed : bool;
}

(* Shared-parallel mode: registrations are split into unit-whole shards
   (see {!Shared_plan.partition}) and each worker domain builds its own
   shared plan over its shard — built {e on} the worker through
   {!Domain_pool.create_with}, so the plan's interior mutability stays
   domain-local. The feed is broadcast; per-query results are read after
   quiesce/shutdown, which establish the happens-before edges. *)
type shared_parallel = {
  sh_pool : Event.t array Domain_pool.t;
  sh_plans : Shared_plan.t array;  (* shard order; read after quiesce *)
  sh_batcher : Event.t Domain_pool.batcher;
  mutable sh_flushed : bool;
}

(* Sequential shared mode keeps the plan plus any "extras": queries
   registered after the first event, which cannot join the already-fed
   shared population and therefore run as independent executors beside
   it. Registrations before the first event rebuild the (empty) plan so
   they share fully. *)
type shared_state = {
  mutable plan : Shared_plan.t;
  mutable extras : entry list;  (* registration order *)
}

type backend =
  | Independent of entry list
  | Independent_par of entry list * parallel
  | Shared of shared_state
  | Shared_par of shared_parallel

type t = {
  mutable regs : (string * Automaton.t * Executor.strategy) list;
  options : Engine.options;
  mutable backend : backend;
}

let validate names =
  if List.exists (fun n -> n = "") names then
    invalid_arg "Multi.create: empty query name";
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Multi.create: duplicate query name"

let make_independent options domains queries =
  let exec_options =
    if domains > 1 then { options with Engine.domains = 1 } else options
  in
  let entries =
    List.map
      (fun (name, automaton, strategy) ->
        (* In parallel mode each query's executor records through its own
           forked child: queries pinned to different workers must not
           share plain-mutable span/histogram state. *)
        let entry_options =
          if domains <= 1 then exec_options
          else
            match exec_options.Engine.telemetry with
            | None -> exec_options
            | Some tl ->
                {
                  exec_options with
                  Engine.telemetry = Some (Telemetry.fork tl);
                }
        in
        {
          name;
          automaton;
          exec = Executor.create ~options:entry_options strategy automaton;
        })
      queries
  in
  if domains <= 1 then Independent entries
  else begin
    let groups = Array.make domains [] in
    List.iteri
      (fun i e -> groups.(i mod domains) <- e :: groups.(i mod domains))
      entries;
    Array.iteri (fun i g -> groups.(i) <- List.rev g) groups;
    let pool =
      Domain_pool.create ?telemetry:options.Engine.telemetry ~domains
        (fun i events ->
          Array.iter
            (fun event ->
              List.iter
                (fun e -> ignore (Executor.feed e.exec event))
                groups.(i))
            events)
    in
    let batch_hist =
      Option.map
        (fun tl -> Telemetry.histogram tl "pool.batch_events")
        options.Engine.telemetry
    in
    let batcher =
      Domain_pool.batcher ?hist:batch_hist
        ~limit:(max 1 options.Engine.batch_size) pool
    in
    Independent_par (entries, { pool; groups; batcher; flushed = false })
  end

let plan_regs queries =
  List.map
    (fun (name, automaton, strategy) ->
      { Shared_plan.r_name = name; r_automaton = automaton; r_strategy = strategy })
    queries

let make_shared options domains queries =
  if domains <= 1 then
    Shared
      { plan = Shared_plan.create ~options (plan_regs queries); extras = [] }
  else begin
    let shards =
      Shared_plan.partition ~options ~shards:domains (plan_regs queries)
    in
    (* Each worker's plan records through its own telemetry fork and
       never nests a second domain pool. The forks are created here, on
       the calling thread, but written only by their worker. *)
    let shard_options =
      Array.map
        (fun _ ->
          {
            options with
            Engine.domains = 1;
            telemetry = Option.map Telemetry.fork options.Engine.telemetry;
          })
        shards
    in
    let slots = Array.make domains None in
    let pool =
      Domain_pool.create_with ?telemetry:options.Engine.telemetry ~domains
        ~init:(fun i ->
          let plan =
            Shared_plan.create ~options:shard_options.(i) shards.(i)
          in
          slots.(i) <- Some plan;
          plan)
        (* Per-event feeding (the chunking only amortizes the queue
           handshake): each query must observe the exact per-event
           sequence so parallel metrics equal sequential ones. *)
        (fun plan events ->
          Array.iter (fun e -> ignore (Shared_plan.feed plan e)) events)
    in
    (* The ready handshake in [create_with] makes the inits' writes
       visible here. *)
    let plans = Array.map Option.get slots in
    let batch_hist =
      Option.map
        (fun tl -> Telemetry.histogram tl "pool.batch_events")
        options.Engine.telemetry
    in
    let batcher =
      Domain_pool.batcher ?hist:batch_hist
        ~limit:(max 1 options.Engine.batch_size) pool
    in
    Shared_par
      { sh_pool = pool; sh_plans = plans; sh_batcher = batcher; sh_flushed = false }
  end

let create_mixed ?(options = Engine.default_options) ?(shared = true) queries =
  validate (List.map (fun (name, _, _) -> name) queries);
  let domains = min options.Engine.domains (List.length queries) in
  let backend =
    if shared then make_shared options domains queries
    else make_independent options domains queries
  in
  { regs = queries; options; backend }

let create ?options ?(strategy = `Plain) ?shared queries =
  create_mixed ?options ?shared
    (List.map (fun (name, automaton) -> (name, automaton, strategy)) queries)

let names t = List.map (fun (n, _, _) -> n) t.regs

let strategy_names t =
  match t.backend with
  | Independent entries | Independent_par (entries, _) ->
      List.map (fun e -> (e.name, Executor.name e.exec)) entries
  | Shared _ | Shared_par _ ->
      List.map (fun (n, _, s) -> (n, Executor.strategy_name s)) t.regs

let n_domains t =
  match t.backend with
  | Independent _ | Shared _ -> 1
  | Independent_par (_, p) -> Domain_pool.size p.pool
  | Shared_par p -> Domain_pool.size p.sh_pool

(* Per-name results in global registration order (each shard preserves
   its own registration order, but shards interleave). *)
let reorder t pairs =
  let idx = Hashtbl.create 16 in
  List.iteri (fun i (n, _, _) -> Hashtbl.replace idx n i) t.regs;
  List.sort
    (fun (a, _) (b, _) ->
      Int.compare (Hashtbl.find idx a) (Hashtbl.find idx b))
    pairs

let feed_entries entries event =
  List.filter_map
    (fun e ->
      match Executor.feed e.exec event with
      | [] -> None
      | completed -> Some (e.name, completed))
    entries

let feed t event =
  match t.backend with
  | Independent entries -> feed_entries entries event
  | Shared s ->
      let from_plan = Shared_plan.feed s.plan event in
      if s.extras = [] then from_plan
      else reorder t (from_plan @ feed_entries s.extras event)
  | Independent_par (_, p) ->
      if p.flushed then invalid_arg "Multi.feed: query set is closed";
      (* Broadcast: every worker receives every event and drives its own
         queries. Per-event completions surface at [close]/[outcomes]. *)
      Domain_pool.broadcast p.batcher event;
      []
  | Shared_par p ->
      if p.sh_flushed then invalid_arg "Multi.feed: query set is closed";
      Domain_pool.broadcast p.sh_batcher event;
      []

let feed_batch_entries entries events =
  List.filter_map
    (fun e ->
      match Executor.feed_batch e.exec events with
      | [] -> None
      | completed -> Some (e.name, completed))
    entries

let feed_batch t events =
  match t.backend with
  | Independent entries -> feed_batch_entries entries events
  | Shared s ->
      let from_plan = Shared_plan.feed_batch s.plan events in
      if s.extras = [] then from_plan
      else reorder t (from_plan @ feed_batch_entries s.extras events)
  | Independent_par (_, p) ->
      if p.flushed then invalid_arg "Multi.feed_batch: query set is closed";
      Array.iter (fun event -> Domain_pool.broadcast p.batcher event) events;
      []
  | Shared_par p ->
      if p.sh_flushed then invalid_arg "Multi.feed_batch: query set is closed";
      Array.iter (fun event -> Domain_pool.broadcast p.sh_batcher event) events;
      []

let close_entries entries =
  List.filter_map
    (fun e ->
      match Executor.close e.exec with
      | [] -> None
      | flushed -> Some (e.name, flushed))
    entries

let close t =
  match t.backend with
  | Independent entries -> close_entries entries
  | Shared s ->
      let from_plan = Shared_plan.close s.plan in
      if s.extras = [] then from_plan
      else reorder t (from_plan @ close_entries s.extras)
  | Independent_par (entries, p) ->
      (* Join the workers first (shutdown flushes the broadcast batcher
         before closing the queues): afterwards the executors are owned
         by the calling thread again and flush sequentially, in
         registration order, as the sequential mode does. *)
      Domain_pool.shutdown p.pool;
      if p.flushed then []
      else begin
        p.flushed <- true;
        List.filter_map
          (fun e ->
            match Executor.close e.exec with
            | [] -> None
            | flushed -> Some (e.name, flushed))
          entries
      end
  | Shared_par p ->
      Domain_pool.shutdown p.sh_pool;
      if p.sh_flushed then []
      else begin
        p.sh_flushed <- true;
        reorder t
          (List.concat_map Shared_plan.close (Array.to_list p.sh_plans))
      end

let quiesce t =
  match t.backend with
  | Independent _ | Shared _ -> ()
  | Independent_par (_, p) -> Domain_pool.quiesce p.pool
  | Shared_par p -> Domain_pool.quiesce p.sh_pool

let population t =
  quiesce t;
  match t.backend with
  | Independent entries | Independent_par (entries, _) ->
      List.fold_left (fun acc e -> acc + Executor.population e.exec) 0 entries
  | Shared s ->
      Shared_plan.population s.plan
      + List.fold_left
          (fun acc e -> acc + Executor.population e.exec)
          0 s.extras
  | Shared_par p ->
      Array.fold_left
        (fun acc sp -> acc + Shared_plan.population sp)
        0 p.sh_plans

(* Shared-mode outcomes: finalization needs the whole raw candidate set
   per query, and aliased registrations share identical raw, so the
   finalize pass is memoized per alias id within each plan. *)
let shared_outcomes t plans =
  let memo = Hashtbl.create 16 in
  let per_query =
    List.concat
      (List.mapi
         (fun pi sp ->
           List.map
             (fun (r : Shared_plan.query_result) ->
               let matches =
                 if t.options.Engine.finalize then (
                   match Hashtbl.find_opt memo (pi, r.q_alias) with
                   | Some m -> m
                   | None ->
                       let m =
                         Substitution.finalize ~policy:t.options.Engine.policy
                           (Automaton.pattern r.q_automaton)
                           r.q_raw
                       in
                       Hashtbl.add memo (pi, r.q_alias) m;
                       m)
                 else r.q_raw
               in
               ( r.q_name,
                 { Engine.matches; raw = r.q_raw; metrics = r.q_metrics } ))
             (Shared_plan.results sp))
         plans)
  in
  reorder t per_query

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

let outcomes t =
  quiesce t;
  match t.backend with
  | Independent entries | Independent_par (entries, _) ->
      List.map (entry_outcome t) entries
  | Shared s ->
      if s.extras = [] then shared_outcomes t [ s.plan ]
      else
        reorder t
          (shared_outcomes t [ s.plan ] @ List.map (entry_outcome t) s.extras)
  | Shared_par p -> shared_outcomes t (Array.to_list p.sh_plans)

(* Every query observes the whole feed (shared-mode metrics are
   compensated to the independent view), so the cross-query summary uses
   the replica accounting: input counters agree (max), work counters and
   the simultaneous-instance peaks sum. *)
let merged_metrics t =
  quiesce t;
  match t.backend with
  | Independent entries | Independent_par (entries, _) ->
      Metrics.merge_replicas
        (List.map (fun e -> Executor.metrics e.exec) entries)
  | Shared s ->
      Metrics.merge_replicas
        (List.map
           (fun (r : Shared_plan.query_result) -> r.q_metrics)
           (Shared_plan.results s.plan)
        @ List.map (fun e -> Executor.metrics e.exec) s.extras)
  | Shared_par p ->
      Metrics.merge_replicas
        (List.concat_map
           (fun sp ->
             List.map
               (fun (r : Shared_plan.query_result) -> r.q_metrics)
               (Shared_plan.results sp))
           (Array.to_list p.sh_plans))

let shared_stats t =
  quiesce t;
  match t.backend with
  | Independent _ | Independent_par _ -> []
  | Shared s -> [ Shared_plan.stats s.plan ]
  | Shared_par p -> Array.to_list (Array.map Shared_plan.stats p.sh_plans)

(* ------------------------------------------------------------------ *)
(* Runtime registration (sequential backends only).                   *)
(* ------------------------------------------------------------------ *)

let sequential_only t op =
  match t.backend with
  | Independent_par _ | Shared_par _ ->
      invalid_arg
        ("Multi." ^ op ^ ": domain-parallel query sets are fixed at creation")
  | Independent _ | Shared _ -> ()

let register t (name, automaton, strategy) =
  sequential_only t "register";
  if name = "" then invalid_arg "Multi.register: empty query name";
  if List.exists (fun (n, _, _) -> n = name) t.regs then
    invalid_arg ("Multi.register: duplicate query name " ^ name);
  (match t.backend with
  | Independent entries ->
      let e =
        {
          name;
          automaton;
          exec = Executor.create ~options:t.options strategy automaton;
        }
      in
      t.backend <- Independent (entries @ [ e ])
  | Shared s ->
      if Shared_plan.events_fed s.plan = 0 && s.extras = [] then
        (* Nothing fed yet: rebuild the (empty) plan so the newcomer
           shares fully — "register everything, then feed" gets the same
           plan as creation-time registration. *)
        s.plan <-
          Shared_plan.create ~options:t.options
            (plan_regs (t.regs @ [ (name, automaton, strategy) ]))
      else
        (* The shared population already reflects fed events the
           newcomer must not observe: run it independently beside the
           plan. *)
        s.extras <-
          s.extras
          @ [
              {
                name;
                automaton;
                exec = Executor.create ~options:t.options strategy automaton;
              };
            ]
  | Independent_par _ | Shared_par _ -> assert false);
  t.regs <- t.regs @ [ (name, automaton, strategy) ]

let unregister t name =
  sequential_only t "unregister";
  let outcome =
    match t.backend with
    | Independent entries -> (
        match List.find_opt (fun e -> e.name = name) entries with
        | None -> invalid_arg ("Multi.unregister: unknown query " ^ name)
        | Some e ->
            ignore (Executor.close e.exec);
            t.backend <-
              Independent (List.filter (fun x -> x.name <> name) entries);
            snd (entry_outcome t e))
    | Shared s -> (
        match List.find_opt (fun e -> e.name = name) s.extras with
        | Some e ->
            ignore (Executor.close e.exec);
            s.extras <- List.filter (fun x -> x.name <> name) s.extras;
            snd (entry_outcome t e)
        | None -> (
            match Shared_plan.retire s.plan name with
            | r -> finalized t r.q_automaton r.q_raw r.q_metrics
            | exception Invalid_argument _ ->
                invalid_arg ("Multi.unregister: unknown query " ^ name)))
    | Independent_par _ | Shared_par _ -> assert false
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
