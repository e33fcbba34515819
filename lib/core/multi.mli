(** Multi-query execution: several SES automata over one event feed.

    Event-processing deployments register many patterns against the same
    stream (the publish/subscribe setting of Cayuga, which the paper cites
    as the home of instance-indexing techniques). [Multi] evaluates a
    single chronological feed against every registered query and collects
    completions per query name. Results are identical to running each
    automaton separately over the same feed. Queries can mix strategies:
    a partitionable pattern can run per-key pools while its neighbours
    run the plain engine.

    {b Shared plan (default).} With [shared = true], registrations are
    compiled into one {!Shared_plan}: the distinct constant predicates
    across all queries' filters are evaluated once per event by a
    predicate index (routing each event only to the queries it can
    affect), byte-identical registrations collapse to one executor with
    per-name fan-out, and eligible queries agreeing on a leading run of
    event sets share one instance population over that prefix. All of it
    is result-transparent: per-query matches, raw emissions and metrics
    equal the [shared = false] independent execution. Set
    [shared = false] to force one isolated executor per query — the
    differential baseline the equivalence tests compare against.

    {b Domain-parallel mode.} When [options.domains > 1] (clamped to the
    number of queries), worker domains process the broadcast feed in
    parallel. Registrations are split into one shard per worker by
    {!Shared_plan.partition}, which keeps every sharing unit whole; a
    shard is what the sequential mode runs — its own shared plan when
    [shared], its own executors otherwise — built on the calling thread
    with [domains = 1] and its own telemetry fork. Each query is still
    evaluated by one domain, strictly sequentially, so per-query results
    are identical to the sequential mode. Operationally (mirroring
    {!Partitioned}'s sharded mode): [feed] returns [[]] — completions surface at [close]/{!outcomes} —
    [population]/{!outcomes} quiesce the workers first, [close] joins
    the domains and forbids further feeding, and worker exceptions
    re-raise at the next call. Queries inside a parallel Multi do not
    nest domain pools. *)

open Ses_event

type t

val create :
  ?options:Engine.options ->
  ?strategy:Executor.strategy ->
  ?shared:bool ->
  (string * Automaton.t) list ->
  t
(** Registers named queries, all under one strategy (default [`Plain]).
    Names must be distinct and non-empty; raises [Invalid_argument]
    otherwise. The options apply to every query. [shared] (default
    [true]) selects the shared-plan backend. *)

val create_mixed :
  ?options:Engine.options ->
  ?shared:bool ->
  (string * Automaton.t * Executor.strategy) list ->
  t
(** Per-query strategies. *)

val register : t -> string * Automaton.t * Executor.strategy -> unit
(** Adds a query to a live sequential query set. Before the first event
    is fed, a shared backend rebuilds its (still empty) plan so the
    newcomer shares fully; afterwards it runs as an independent executor
    beside the plan (it must not observe events fed before it existed).
    Raises [Invalid_argument] on an empty or duplicate name, or on a
    domain-parallel query set (those are fixed at creation). *)

val unregister : t -> string -> Engine.outcome
(** Removes a query from a live sequential query set and returns its
    finalized outcome to date, accepting instances flushed in close
    order. The remaining queries' future matches and metrics are as if
    the set had been built without it (see {!Shared_plan.retire}).
    Raises [Invalid_argument] on an unknown name or a domain-parallel
    query set. *)

val names : t -> string list

val strategy_names : t -> (string * string) list
(** Query name paired with the executor name serving it. *)

val n_domains : t -> int
(** Worker domains in use (1 in sequential mode). *)

val feed : t -> Event.t -> (string * Substitution.t list) list
(** Pushes one event to every query; returns the raw substitutions whose
    instances completed on this event, grouped by query name in
    registration order (queries with no completions are omitted). *)

val feed_batch : t -> Event.t array -> (string * Substitution.t list) list
(** Pushes a chronological chunk; completions are aggregated over the
    chunk. In domain-parallel mode the chunk enters the broadcast
    batcher and [[]] is returned; per-query results and metrics stay
    identical to the sequential mode. *)

val close : t -> (string * Substitution.t list) list
(** Flushes accepting instances of every query. *)

val population : t -> int
(** Total live instances across all queries (aliased registrations each
    count their own, as independent execution would). *)

val outcomes : t -> (string * Engine.outcome) list
(** Per-query finalized outcomes (callable after [close]). *)

val merged_metrics : t -> Metrics.snapshot
(** The cross-query view, via {!Metrics.merge_replicas}: every query
    observes the whole feed (shared-mode metrics are compensated to the
    independent view), so the input counters take the max and the work
    counters (including the instance peaks) sum. Deterministic in both
    sequential and domain-parallel mode. *)

val shared_stats : t -> Shared_plan.stats list
(** The shared plan's sharing summary — merge groups, aliases, template
    groups, predicate-index hit rate. One entry per worker plan in
    domain-parallel shared mode, a singleton in sequential shared mode,
    [[]] for [shared = false]. *)

val run :
  ?options:Engine.options ->
  ?strategy:Executor.strategy ->
  ?shared:bool ->
  (string * Automaton.t) list ->
  Event.t Seq.t ->
  (string * Engine.outcome) list
(** Feed-all + close + outcomes in one call. *)
