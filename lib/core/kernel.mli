(** The instance/consume kernel: ConsumeEvent (Algorithm 2) written once.

    The plain {!Engine} and both regions of {!Shared_plan}'s merged-prefix
    evaluator run their per-event loops over these types and functions.
    An instance carries an owner bitmask: the engine leaves it at one
    bit, a shared-prefix instance carries one bit per query owning it.

    A {!t} holds what ConsumeEvent reads from the pattern (quantifier
    maxima, strict minima), the metrics it records into, and a {!clock}
    — the per-event stamp that invalidates the slots' constant pre-check
    caches, and the creation counter that orders instance-store buckets.
    Kernels of one merged group share a clock. *)

open Ses_event
open Ses_pattern

(** An automaton instance (Definition 4): current state plus match
    buffer. Bindings are kept newest-first; [first_ts] is the timestamp of
    the earliest bound event. [counts] caches the number of bindings per
    variable so quantifier checks are O(1); it is copied on extension,
    never mutated in place. [id] is a creation stamp that makes the
    instance-store bucket order [(first_ts, id)] total. *)
type instance = {
  id : int;
  state : Varset.t;
  bindings : Substitution.binding list;
  counts : int array;
  first_ts : Time.t;
  mutable owners : int;
}

(** A transition with its condition set split into the constant atoms
    ([v.A φ C], instance-independent, evaluated once per event by
    {!candidates}) and the rest. [tgt_bucket] interns the target state's
    store bucket so staging a successor costs no lookup. *)
type transition = {
  transition : Automaton.transition;
  const_conds : Condition.t list;
  var_conds : Condition.t list;
  tgt_bucket : instance Instance_store.handle;
}

(** A negation guard: the variable whose occurrence kills, with its
    constant part split out so it can veto a whole bucket per event. *)
type guard = {
  neg_var : int;
  guard_conds : Condition.t list;
  guard_consts : Condition.t list;
}

(** One automaton state, resolved once: outgoing transitions, the guards
    armed there, whether it accepts, and its interned bucket. The
    mutable fields cache {!candidates} and {!guards_may_fire} for the
    event whose stamp they carry. *)
type slot = {
  slot_state : Varset.t;
  accepting : bool;
  prepared : transition list;
  guards : guard list;
  bucket : instance Instance_store.handle;
  mutable active : transition list;
  mutable active_stamp : int;
  mutable guards_may : bool;
  mutable guards_stamp : int;
}

type clock = {
  mutable stamp : int;
  mutable next_id : int;
}

type t = {
  max_counts : int option array;  (** per-variable quantifier maxima *)
  minima : (int * int) list;
      (** (variable, min) for variables needing more than one binding;
          checked at acceptance *)
  precheck : bool;  (** split constant conditions out per event *)
  m : Metrics.t;
  clock : clock;
}

(** What {!consume} did with an instance: [Fired] (some transition fired;
    the instance is replaced by its successors), [Killed] (a negation
    guard fired), [Kept] (nothing happened; it survives unchanged) or
    [Spent] (a fresh instance that fired nothing — never kept). *)
type fate =
  | Fired
  | Killed
  | Kept
  | Spent

val new_clock : unit -> clock

val create :
  ?precheck:bool -> ?clock:clock -> ?metrics:Metrics.t -> Pattern.t -> t
(** Defaults: pre-check on, a fresh clock, fresh metrics. *)

val tick : t -> unit
(** Bumps the clock's stamp: call once per event, before consuming it. *)

val store : unit -> instance Instance_store.t

val fresh : n_vars:int -> owners:int -> Varset.t -> instance
(** The start-state instance opened for every event; never stored, so
    one allocation serves a whole stream. *)

val is_fresh : instance -> bool

val expired : Time.duration -> instance -> Event.t -> bool
(** τ-expiry: a non-fresh instance whose window closed before [e]. *)

val substitution : instance -> Substitution.t
(** The match buffer, oldest binding first. *)

val slot :
  ?keep:(Automaton.transition -> bool) ->
  ?armed:bool ->
  Automaton.t ->
  instance Instance_store.t ->
  Varset.t ->
  slot
(** The slot of a state, its buckets interned in the given store. [keep]
    selects the outgoing transitions (default all); [armed] (default
    [true]) arms the negation guards whose boundary is this state. *)

(** {1 ConsumeEvent and its primitives} *)

val candidates : t -> slot -> Event.t -> transition list
(** The slot's transitions whose constant atoms [e] satisfies — all of
    them without the pre-check. Cached per stamp, so every instance of
    the state shares one evaluation. *)

val guards_may_fire : t -> slot -> Event.t -> bool
(** Whether some guard of the slot has its constant atoms satisfied by
    [e]; cached per stamp. *)

val fires : t -> transition -> instance -> Event.t -> bool
(** The quantifier-max check and the condition walk
    ({!Condition.holds_binding} over the instance's buffer,
    in place) for a transition that survived {!candidates}. *)

val successor : t -> transition -> instance -> Event.t -> instance
(** The instance after binding [e] along the transition: counts copied
    and bumped, a fresh id from the clock, owners inherited. *)

val killed : slot -> instance -> Event.t -> bool
(** Whether a guard armed at the slot kills the instance on [e]. *)

val consume :
  t ->
  slot ->
  instance ->
  Event.t ->
  on_succ:(transition -> instance -> unit) ->
  fate
(** ConsumeEvent: every firing transition's successor goes to [on_succ]
    in transition order; with nothing fired, a non-fresh instance is
    tested against the slot's guards. Records fired transitions, created
    successors and kills in the kernel's metrics. *)

(** {1 Acceptance} *)

val accepts : t -> instance -> bool
(** Every quantifier minimum is met. *)

val flush : t -> ?owner:int -> instance list -> emit:(instance -> unit) -> unit
(** Hands [emit], in list order, each instance owned by a bit of [owner]
    (default: any) whose minima are met. The caller supplies accepting
    instances and decides whether they leave their store. *)
