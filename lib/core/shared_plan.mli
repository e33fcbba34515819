(** The shared evaluation pipeline behind {!Multi}.

    Given a set of named query registrations, builds one plan that
    exploits three kinds of cross-query overlap, none of which changes
    any query's matches or metrics:

    - {b predicate indexing} — the distinct constant atoms across all
      queries' strong-filter clauses are evaluated once per event by a
      {!Predicate_index}; each query (or merged-group member) learns
      whether the event can affect it without re-testing shared atoms.
      Queries whose plan gates on the strong filter are then fed only
      their routed subsequence.
    - {b alias collapsing} — registrations with byte-identical
      [(strategy, canonical automaton signature)] run one executor,
      with results fanned out to every registered name.
    - {b prefix merging} — eligible [`Plain] queries agreeing on a
      leading run of event sets (canonical signature of the
      analyzer-pruned automaton) evaluate that prefix once over a
      shared instance population carrying per-query owner bitmasks,
      forking into private per-query regions at the divergence point.

    Per-query raw emissions, matches and metrics are identical to
    running each registration independently — including raw emission
    order — except that τ-expiry emissions of a strongly-filtered
    member can surface a few events earlier (at the next event the
    shared group processes rather than the next event that member
    keeps); aggregates are unaffected. *)

open Ses_event

type reg = {
  r_name : string;
  r_automaton : Automaton.t;
  r_strategy : Executor.strategy;
}

type t

val create : options:Engine.options -> reg list -> t

val feed : t -> Event.t -> (string * Substitution.t list) list
(** Pushes one event (chronological order required) and returns, per
    registered name in registration order, the raw substitutions whose
    instances completed on it (names with none are omitted). *)

val feed_batch : t -> Event.t array -> (string * Substitution.t list) list
(** Pushes a chronological chunk; same contract as {!feed}, with
    completions aggregated over the chunk. *)

val close : t -> (string * Substitution.t list) list
(** End of input: flushes accepting instances. Subsequent [feed]s
    raise; subsequent [close]s return []. *)

val population : t -> int
(** Total live instances across all registered names — aliases count
    once per name, as independent execution would. *)

type query_result = {
  q_name : string;
  q_automaton : Automaton.t;
  q_alias : int;  (** registrations sharing this id share identical raw *)
  q_raw : Substitution.t list;
  q_metrics : Metrics.snapshot;
}

val results : t -> query_result list
(** Per-registration raw emissions and metrics, in registration order.
    Metrics are compensated so they equal independent execution's.
    Registrations removed by {!retire} are omitted. *)

val retire : t -> string -> query_result
(** Removes a registered query from a live plan and returns its outcome
    to date, with accepting instances flushed in the engine's close
    order. The remaining queries' future matches and metrics are as if
    the plan had been built without the retired one: its owner bit is
    cleared from every shared instance (sole-owner instances drop out),
    its predicate-index slots stop routing, and aliased siblings keep
    their executor (the retiree's flush is then read in place through
    {!Executor.accepting}).
    Raises [Invalid_argument] on an unknown (or already retired) name,
    or if the plan is closed. *)

val events_fed : t -> int
(** Events pushed so far ([feed] counts 1, [feed_batch] its length). *)

(** {1 Introspection} *)

type unit_summary = {
  u_names : string list;  (** registered names sharing this executor *)
  u_kind : [ `Single | `Merged of int ];  (** [`Merged depth] *)
  u_routed : bool;  (** fed through the predicate index *)
  u_gated : bool;  (** non-routed events skipped entirely *)
}

type stats = {
  st_units : unit_summary list;
  st_merged_groups : int;
  st_merged_queries : int;
  st_aliased_queries : int;  (** registrations beyond their unit's first *)
  st_template_groups : string list list;
      (** registration names per template *)
  st_index_atoms : int;
  st_index_evaluated : int;
  st_index_saved : int;
  st_index_hit_rate : float;
}

val stats : t -> stats

val partition : options:Engine.options -> shards:int -> reg list -> reg list array
(** Splits registrations into [shards] groups for the domain-parallel
    mode, keeping every sharing unit (alias set, merged group) whole so
    each worker re-derives the same grouping on its subset. Greedy by
    member count; deterministic. *)
