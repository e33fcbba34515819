(** State-indexed store of live automaton instances.

    The engine's pool Ω, bucketed by automaton state so that per-event
    work concentrates on the states that can actually react to the event:
    a state whose outgoing transitions all fail the per-event constant
    pre-check (and whose negation guards cannot fire) is left untouched
    in O(1) instead of being walked instance by instance.

    Within a bucket, instances are kept sorted ascending by
    [(ts_of, seq_of)] — for the engine, the timestamp of the earliest
    bound event and a unique creation stamp. Because expiry of an
    instance on event [e] depends only on [Event.ts e - first_ts], the
    expired instances of a bucket always form a prefix of this order:
    {!pop_expired} stops at the first unexpired instance instead of
    visiting the whole bucket.

    Mutations during an event are two-phase: {!stage} queues an instance
    for (re-)insertion without making it visible, and {!commit} merges
    everything staged into the buckets. This is exactly the engine's
    discipline — successors spawned while consuming event [e] must not
    themselves consume [e].

    The store is polymorphic in the instance type; the two key accessors
    are supplied at creation so this module depends only on {!Varset} and
    the event library's clock. *)

open Ses_event

type 'a t

val create : ts_of:('a -> Time.t) -> seq_of:('a -> int) -> unit -> 'a t
(** [seq_of] must be injective over the instances ever stored (the engine
    uses a monotone creation counter), making the per-bucket order — and
    therefore every traversal — deterministic. *)

val size : 'a t -> int
(** Total live instances across all buckets, O(1). Staged instances do
    not count until {!commit}. *)

val bucket_size : 'a t -> Varset.t -> int

(** {1 Bucket handles}

    A handle interns one state's bucket: resolving handles once per
    stream (the engine does it per automaton state at [create]) removes
    every per-event hashtable probe from the hot loop — a batch, or a
    whole run, probes each {!Varset} bucket exactly once. Handles remain
    valid for the lifetime of the store; {!clear} empties the buckets in
    place rather than invalidating them. *)

type 'a handle

val handle : 'a t -> Varset.t -> 'a handle
(** Interns (creating if needed, possibly empty) the bucket of the given
    state. *)

val handle_size : 'a handle -> int

val pop_expired_h : 'a handle -> expired:('a -> bool) -> 'a list
(** {!pop_expired} through a handle, skipping the bucket lookup. *)

val take_all_h : 'a handle -> 'a list

val items_h : 'a handle -> 'a list
(** The bucket's committed instances in bucket order, left in place. *)

val put_back_h : 'a handle -> 'a list -> unit

val stage_h : 'a handle -> 'a -> unit
(** {!stage} through a handle — no hashtable probe at all: pending
    inserts live on the bucket record itself, and the store keeps a
    dirty list so {!commit} touches only buckets actually staged
    into. *)

val pop_expired : 'a t -> Varset.t -> expired:('a -> bool) -> 'a list
(** Removes and returns, in bucket order, the maximal prefix of the
    bucket on which [expired] holds. [expired] must be antitone in the
    bucket order (true on a prefix); the engine's τ check is, since
    buckets are sorted by [first_ts]. *)

val take_all : 'a t -> Varset.t -> 'a list
(** Removes and returns the whole bucket, in bucket order. *)

val put_back : 'a t -> Varset.t -> 'a list -> unit
(** Restores survivors of a {!take_all}, which must still be in bucket
    order and target an empty bucket; O(length). *)

val stage : 'a t -> Varset.t -> 'a -> unit
(** Queues an instance for insertion into the bucket of the given state;
    invisible to every reader until {!commit}. *)

val commit : 'a t -> unit
(** Sorts what was staged and merges it into the buckets. *)

val fold_buckets : (Varset.t -> 'a list -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Folds over non-empty buckets in ascending state order; each bucket is
    presented in bucket order. *)

val to_list : 'a t -> 'a list
(** All instances, ascending by state then bucket order. *)

val clear : 'a t -> unit
