open Ses_event
open Ses_pattern

(* The shared evaluation pipeline behind {!Multi}: one predicate index
   answering "which queries can this event affect", byte-identical
   registrations collapsed to one executor, and queries agreeing on a
   leading run of event sets evaluated over one shared instance
   population up to the state where their automata diverge.

   The merged-prefix evaluator below runs the {!Engine}'s per-event loop
   on the same ConsumeEvent kernel ({!Kernel}), over instances carrying
   an owner bitmask: the shared region adds only the per-owner
   bookkeeping (boundary transitions, merge guards, populations), and
   each owner's private region is the kernel run over its own store. Its
   exactness rests on three facts, each a consequence of signature
   equality and of routing clauses being the per-variable constant
   conditions themselves:

   - a shared-prefix transition has identical conditions for every
     owner, so a fire implies the event satisfies that variable's
     constant clause — which makes the event relevant to {e every}
     owner. Contrapositive: an event not routed to some owner fires no
     shared transition and triggers no shared guard.
   - an event not routed to an owner fails all of that owner's clauses,
     so in that owner's private region it can neither fire a transition
     nor kill: only the τ-expiry sweep matters, which the group still
     runs.
   - an event routed to no owner, arriving while the group holds no
     instances, is a pure no-op for every member engine beyond
     fresh-instance accounting — compensated exactly when metrics are
     snapshot.

   Per-owner emissions and metrics are therefore identical to running
   each member engine independently — including raw emission order —
   except that τ-expiry emissions of a member whose filter is effective
   can surface a few events earlier (at the next event the {e group}
   processes rather than the next event that member keeps). *)

type atom = Schema.Field.t * Predicate.op * Value.t

(* ------------------------------------------------------------------ *)
(* Registration analysis: aliases, templates, merge groups.           *)
(* ------------------------------------------------------------------ *)

type reg = { r_name : string; r_automaton : Automaton.t; r_strategy : Executor.strategy }

(* An alias set: registrations whose (strategy, automaton signature)
   coincide, executed once. [a_effective] is the analyzer-pruned
   automaton when one is registered — what a merged member evaluates
   (result- and metrics-preserving: pruned transitions never fire). *)
type alias_unit = {
  a_regs : int list;  (* registration indices, ascending; head is rep *)
  a_automaton : Automaton.t;
  a_strategy : Executor.strategy;
  a_effective : Automaton.t;
}

type unit_spec =
  | S_single of alias_unit
  | S_merged of { depth : int; members : alias_unit list }

type grouping = {
  g_units : unit_spec list;  (* in first-registration order *)
  g_templates : int list list;
      (* registration indices grouped by constant-free skeleton;
         only groups of ≥ 2 *)
}

let merge_eligible options (u : alias_unit) =
  u.a_strategy = `Plain
  && options.Engine.filter_extras = []
  && (match options.Engine.filter with
     | Event_filter.No_filter | Event_filter.Strong -> true
     | Event_filter.Paper -> false)

(* Owner bitmasks live in one OCaml int. *)
let max_owners = 62

let group_registrations ~options regs =
  let n = Array.length regs in
  (* Aliases: same strategy, same canonical signature. *)
  let alias_tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let units = ref [] and n_units = ref 0 in
  let unit_arr = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let r = regs.(i) in
    let key =
      Executor.strategy_name r.r_strategy ^ "\x00" ^ Query_sig.full r.r_automaton
    in
    match Hashtbl.find_opt alias_tbl key with
    | Some u -> Hashtbl.replace unit_arr u (i :: Hashtbl.find unit_arr u)
    | None ->
        Hashtbl.add alias_tbl key !n_units;
        Hashtbl.add unit_arr !n_units [ i ];
        units := (!n_units, r) :: !units;
        incr n_units
  done;
  let alias_units =
    List.rev_map
      (fun (u, r) ->
        let effective =
          match Planner.analyze r.r_automaton with
          | Some a -> a.Planner.automaton
          | None -> r.r_automaton
        in
        {
          a_regs = List.rev (Hashtbl.find unit_arr u);
          a_automaton = r.r_automaton;
          a_strategy = r.r_strategy;
          a_effective = effective;
        })
      !units
  in
  (* Prefix-merge groups over the eligible alias units: group by the
     depth-1 prefix signature of the effective automaton, then deepen
     the merge point while every member still agrees (and still has
     sets of its own beyond it — a member whose pattern is exactly the
     prefix stays as an "ender", accepted at the merge state). *)
  let eligible, rest =
    List.partition (fun u -> merge_eligible options u) alias_units
  in
  let by_prefix : (string, alias_unit list) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun u ->
      let key = Query_sig.prefix_signature u.a_effective 1 in
      (match Hashtbl.find_opt by_prefix key with
      | None -> order := key :: !order
      | Some _ -> ());
      Hashtbl.replace by_prefix key
        (u :: Option.value ~default:[] (Hashtbl.find_opt by_prefix key)))
    eligible;
  let refine members =
    let n_sets u = Pattern.n_sets (Automaton.pattern u.a_effective) in
    let rec deepen d =
      if
        List.for_all (fun u -> n_sets u > d) members
        && (let sigs =
              List.map (fun u -> Query_sig.prefix_signature u.a_effective (d + 1)) members
            in
            match sigs with
            | [] -> false
            | s0 :: tl -> List.for_all (String.equal s0) tl)
      then deepen (d + 1)
      else d
    in
    deepen 1
  in
  let merged_specs = ref [] and single_specs = ref [] in
  List.iter
    (fun key ->
      let members = List.rev (Hashtbl.find by_prefix key) in
      if List.length members < 2 then
        List.iter (fun u -> single_specs := S_single u :: !single_specs) members
      else begin
        let depth = refine members in
        (* Chunk oversized groups so masks fit one int. *)
        let rec chunk = function
          | [] -> ()
          | ms ->
              let take = min max_owners (List.length ms) in
              let head = List.filteri (fun i _ -> i < take) ms in
              let tail = List.filteri (fun i _ -> i >= take) ms in
              if List.length head >= 2 then
                merged_specs := S_merged { depth; members = head } :: !merged_specs
              else
                List.iter
                  (fun u -> single_specs := S_single u :: !single_specs)
                  head;
              chunk tail
        in
        chunk members
      end)
    (List.rev !order);
  List.iter (fun u -> single_specs := S_single u :: !single_specs) rest;
  let specs = List.rev_append !merged_specs (List.rev !single_specs) in
  (* Order units by their first registration so feed results keep
     registration order regardless of grouping. *)
  let first_reg = function
    | S_single u -> List.hd u.a_regs
    | S_merged { members; _ } -> List.hd (List.hd members).a_regs
  in
  let specs =
    List.sort (fun a b -> Int.compare (first_reg a) (first_reg b)) specs
  in
  (* Templates: constant-free skeleton equality over all registrations. *)
  let by_skel : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  let skel_order = ref [] in
  for i = 0 to n - 1 do
    let skel, _ = Query_sig.skeleton regs.(i).r_automaton in
    (match Hashtbl.find_opt by_skel skel with
    | None -> skel_order := skel :: !skel_order
    | Some _ -> ());
    Hashtbl.replace by_skel skel
      (i :: Option.value ~default:[] (Hashtbl.find_opt by_skel skel))
  done;
  let templates =
    List.filter_map
      (fun k ->
        match List.rev (Hashtbl.find by_skel k) with
        | _ :: _ :: _ as g -> Some g
        | _ -> None)
      (List.rev !skel_order)
  in
  { g_units = specs; g_templates = templates }

(* ------------------------------------------------------------------ *)
(* Routing clauses per alias unit.                                    *)
(* ------------------------------------------------------------------ *)

(* [None] = unroutable: fed (or woken) on every event. [Some (cl, gated)]:
   the unit only reacts to events satisfying some clause; [gated] when
   the member's own filter would drop exactly the non-routed events, so
   they need not be fed at all. *)
let routing options (u : alias_unit) : (atom list list * bool) option =
  match u.a_strategy with
  | `Plain -> (
      let p = Automaton.pattern u.a_automaton in
      match options.Engine.filter with
      | Event_filter.Paper -> None
      | Event_filter.No_filter | Event_filter.Strong -> (
          match
            Event_filter.strong_clauses ~extra:options.Engine.filter_extras p
          with
          | None -> None
          | Some clauses ->
              Some (clauses, options.Engine.filter = Event_filter.Strong)))
  | `Auto -> (
      let plan = Planner.plan u.a_automaton in
      match Planner.routing_clauses plan u.a_automaton with
      | None -> None
      | Some clauses -> Some (clauses, true))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Merged-prefix evaluator.                                           *)
(* ------------------------------------------------------------------ *)

type owner = {
  mutable o_regs : int list;
  mutable o_retired : bool;
      (* all registrations gone: bit cleared from every mask, stores
         empty, never routed or processed again *)
  o_bit : int;
  o_index : int;  (* position in [g_owners]; [o_bit = 1 lsl o_index] *)
  o_automaton : Automaton.t;  (* the registered automaton, for finalize *)
  o_k : Kernel.t;  (* the member's maxima, minima and metrics; group clock *)
  o_is_ender : bool;
  o_gated : bool;
  o_merge : Kernel.slot;
      (* the member's own view of the merge state: its boundary
         transitions (targets in [o_store]) and the guards armed there *)
  o_store : Kernel.instance Instance_store.t;
  o_slots : Kernel.slot array;  (* private states, ascending *)
  mutable o_pop : int;
  mutable o_routed : int;
  (* Expiries swept at events this (gated) owner's engine would have
     filtered: the engine only counts them at the owner's next kept
     event — and never, if none follows before close. *)
  mutable o_deferred_expired : int;
  mutable o_emissions : Substitution.t list;  (* newest first *)
  (* Collection cursor: suffix of [o_emissions] already handed out by
     feed/feed_batch/close; [o_marked] says the owner sits on its
     group's emitter list awaiting collection. *)
  mutable o_base : Substitution.t list;
  mutable o_marked : bool;
}

type merged = {
  g_tau : Time.duration;
  g_depth : int;
  g_k : Kernel.t;  (* the representative's maxima; the group clock *)
  g_store : Kernel.instance Instance_store.t;
  g_slots : Kernel.slot array;  (* shared prefix states, ascending *)
  g_start : Kernel.slot;
  g_merge : Kernel.slot;
  g_owners : owner array;
  mutable g_all_gated : bool;
  g_fresh : Kernel.instance;
  mutable g_emitters : owner list;  (* owners with uncollected emissions *)
  g_span : Telemetry.Span.t option;
  g_gauge : Telemetry.Gauge.t option;
}

let iter_owner_bits g mask f =
  Array.iter (fun o -> if o.o_bit land mask <> 0 then f o) g.g_owners

let is_merge g (s : Kernel.slot) = Varset.equal s.slot_state g.g_merge.slot_state

let create_merged ~options ~telemetry_idx ~depth members =
  let rep = List.hd members in
  let rep_p = Automaton.pattern rep.a_effective in
  let prefix_full = Query_sig.prefix_vars rep_p depth in
  let in_prefix q = Varset.subset q prefix_full in
  let clock = Kernel.new_clock () in
  let g_store = Kernel.store () in
  (* Shared slots: states within the prefix, from the representative
     (signature equality makes every member's copy identical), keeping
     only transitions that stay inside the prefix: at the merge state the
     advancing transitions belong to each owner. Merge guards (boundary
     = depth−1, armed at the merge state) are per owner too. *)
  let g_slots =
    Array.of_list
      (List.map
         (fun q ->
           Kernel.slot
             ~keep:(fun tr -> in_prefix tr.Automaton.tgt)
             ~armed:(not (Varset.equal q prefix_full))
             rep.a_effective g_store q)
         (List.filter in_prefix (Automaton.states rep.a_effective)))
  in
  let find_slot q =
    List.find
      (fun (s : Kernel.slot) -> Varset.equal s.slot_state q)
      (Array.to_list g_slots)
  in
  let max_nvars =
    List.fold_left
      (fun acc u -> max acc (Pattern.n_vars (Automaton.pattern u.a_effective)))
      0 members
  in
  let owners =
    Array.of_list
      (List.mapi
         (fun k u ->
           let a = u.a_effective in
           let p = Automaton.pattern a in
           let store = Kernel.store () in
           {
             o_regs = u.a_regs;
             o_retired = false;
             o_bit = 1 lsl k;
             o_index = k;
             o_automaton = u.a_automaton;
             o_k = Kernel.create ~clock p;
             o_is_ender = Pattern.n_sets p = depth;
             o_gated =
               options.Engine.filter = Event_filter.Strong
               && Event_filter.strong_clauses p <> None;
             o_merge =
               Kernel.slot
                 ~keep:(fun tr -> not (in_prefix tr.Automaton.tgt))
                 a store prefix_full;
             o_store = store;
             o_slots =
               Array.of_list
                 (List.map (Kernel.slot a store)
                    (List.filter
                       (fun q -> not (in_prefix q))
                       (Automaton.states a)));
             o_pop = 0;
             o_routed = 0;
             o_deferred_expired = 0;
             o_emissions = [];
             o_base = [];
             o_marked = false;
           })
         members)
  in
  let span, gauge =
    match options.Engine.telemetry with
    | None -> (None, None)
    | Some tl ->
        let child = Telemetry.fork tl in
        let base = Printf.sprintf "multi.merge.%d" telemetry_idx in
        ( Some (Telemetry.span child (base ^ ".prefix")),
          Some (Telemetry.gauge child (base ^ ".population")) )
  in
  {
    g_tau = Automaton.tau rep.a_effective;
    g_depth = depth;
    g_k = Kernel.create ~clock rep_p;
    g_store;
    g_slots;
    g_start = find_slot (Automaton.start rep.a_effective);
    g_merge = find_slot prefix_full;
    g_owners = owners;
    g_all_gated = Array.for_all (fun o -> o.o_gated) owners;
    g_emitters = [];
    (* Shared counts span every member's variables: prefix variables
       agree across members, the rest stay zero until a boundary fires. *)
    g_fresh =
      Kernel.fresh ~n_vars:max_nvars
        ~owners:((1 lsl Array.length owners) - 1)
        (Automaton.start rep.a_effective);
    g_span = span;
    g_gauge = gauge;
  }

let group_nonempty g =
  Instance_store.size g.g_store > 0
  || Array.exists (fun o -> Instance_store.size o.o_store > 0) g.g_owners

let emit_owner g o inst =
  o.o_emissions <- Kernel.substitution inst :: o.o_emissions;
  if not o.o_marked then begin
    o.o_marked <- true;
    g.g_emitters <- o :: g.g_emitters
  end;
  Metrics.on_match o.o_k.m

(* Shared-region expiry of one instance: count it for every owner, and
   emit it for enders (whose accepting state is the merge state). A
   gated owner not routed this event gets the count deferred to its next
   routed event — its own engine would sweep only then (and an expiry
   with no later kept event is never counted: [Engine.close] drops
   non-accepting instances silently). *)
let expire_shared g s (inst : Kernel.instance) rmask =
  iter_owner_bits g inst.owners (fun o ->
      if o.o_gated && o.o_bit land rmask = 0 then
        o.o_deferred_expired <- o.o_deferred_expired + 1
      else Metrics.on_expired o.o_k.m;
      o.o_pop <- o.o_pop - 1;
      if o.o_is_ender && is_merge g s && Kernel.accepts o.o_k inst then
        emit_owner g o inst)

(* ConsumeEvent over a shared instance, from the kernel's primitives:
   shared-prefix transitions fire uniformly for every owner in the mask;
   at the merge state each routed owner additionally tries its own
   boundary transitions (in the engine's transition order: prefix loops
   first, then the advancing transitions). Survival is per owner — the
   instance stays with the owners for which nothing fired and no guard
   killed. *)
let consume_shared g s (inst : Kernel.instance) e rmask ~fresh =
  let shared_fired = ref false in
  List.iter
    (fun (pt : Kernel.transition) ->
      if Kernel.fires g.g_k pt inst e then begin
        shared_fired := true;
        Instance_store.stage_h pt.tgt_bucket (Kernel.successor g.g_k pt inst e);
        iter_owner_bits g inst.owners (fun o ->
            Metrics.on_transition o.o_k.m;
            Metrics.on_instance_created o.o_k.m;
            o.o_pop <- o.o_pop + 1)
      end)
    (Kernel.candidates g.g_k s e);
  let bfired = ref 0 in
  if (not fresh) && is_merge g s then
    iter_owner_bits g (inst.owners land rmask) (fun o ->
        List.iter
          (fun (pt : Kernel.transition) ->
            if Kernel.fires o.o_k pt inst e then begin
              bfired := !bfired lor o.o_bit;
              let succ = Kernel.successor o.o_k pt inst e in
              succ.owners <- o.o_bit;
              Instance_store.stage_h pt.tgt_bucket succ;
              Metrics.on_transition o.o_k.m;
              Metrics.on_instance_created o.o_k.m;
              o.o_pop <- o.o_pop + 1
            end)
          (Kernel.candidates o.o_k o.o_merge e));
  if fresh then false
  else if !shared_fired then begin
    iter_owner_bits g inst.owners (fun o -> o.o_pop <- o.o_pop - 1);
    false
  end
  else begin
    let mask = ref (inst.owners land lnot !bfired) in
    iter_owner_bits g (inst.owners land !bfired) (fun o ->
        o.o_pop <- o.o_pop - 1);
    if !mask = 0 then false
    else if Kernel.killed s inst e then begin
      iter_owner_bits g !mask (fun o ->
          Metrics.on_killed o.o_k.m;
          o.o_pop <- o.o_pop - 1);
      false
    end
    else begin
      if is_merge g s then
        iter_owner_bits g !mask (fun o ->
            if
              Kernel.guards_may_fire o.o_k o.o_merge e
              && Kernel.killed o.o_merge inst e
            then begin
              mask := !mask land lnot o.o_bit;
              Metrics.on_killed o.o_k.m;
              o.o_pop <- o.o_pop - 1
            end);
      if !mask = 0 then false
      else begin
        inst.owners <- !mask;
        true
      end
    end
  end

(* An owner's private region: the engine loop over its own store. [full]
   when the event is routed to the owner; otherwise only the expiry
   sweep can matter (see the module comment). *)
let process_private g o e ~full =
  let on_succ (pt : Kernel.transition) succ =
    Instance_store.stage_h pt.tgt_bucket succ;
    o.o_pop <- o.o_pop + 1
  in
  Array.iter
    (fun (slot : Kernel.slot) ->
      if Instance_store.handle_size slot.bucket > 0 then begin
        let dead =
          Instance_store.pop_expired_h slot.bucket ~expired:(fun i ->
              Kernel.expired g.g_tau i e)
        in
        List.iter
          (fun _ ->
            if o.o_gated && not full then
              o.o_deferred_expired <- o.o_deferred_expired + 1
            else Metrics.on_expired o.o_k.m;
            o.o_pop <- o.o_pop - 1)
          dead;
        if slot.accepting then Kernel.flush o.o_k dead ~emit:(emit_owner g o)
      end;
      if
        full
        && Instance_store.handle_size slot.bucket > 0
        && (Kernel.candidates o.o_k slot e <> []
           || Kernel.guards_may_fire o.o_k slot e)
      then
        Instance_store.put_back_h slot.bucket
          (List.filter
             (fun i ->
               match Kernel.consume o.o_k slot i e ~on_succ with
               | Kernel.Kept -> true
               | Kernel.Fired | Kernel.Killed | Kernel.Spent ->
                   o.o_pop <- o.o_pop - 1;
                   false)
             (Instance_store.take_all_h slot.bucket)))
    o.o_slots

(* One event through the group. [rmask] is the owner bitmask the
   predicate index routed the event to. When every owner is gated, an
   event routed to none of them is skipped outright even with instances
   alive: each member engine drops it in its filter pass, so nothing can
   fire, kill or be sampled — and the τ-pops this postpones happen at
   the group's next processed event before anything is consumed, with
   the expiry counts deferred per owner anyway. A group with an ungated
   owner still processes every event while instances are alive (that
   owner's engine sweeps on every event it keeps, i.e. all of them). *)
let process_merged g e rmask =
  if rmask <> 0 || ((not g.g_all_gated) && group_nonempty g) then begin
    Kernel.tick g.g_k;
    let tok =
      match g.g_span with None -> 0 | Some sp -> Telemetry.Span.start sp
    in
    (* This is the routed owners' "next kept event": expiries their
       engines would sweep now were already popped earlier — count. *)
    iter_owner_bits g rmask (fun o ->
        for _ = 1 to o.o_deferred_expired do
          Metrics.on_expired o.o_k.m
        done;
        o.o_deferred_expired <- 0);
    ignore (consume_shared g g.g_start g.g_fresh e rmask ~fresh:true);
    Array.iter
      (fun (s : Kernel.slot) ->
        if Instance_store.handle_size s.bucket > 0 then begin
          List.iter
            (fun inst -> expire_shared g s inst rmask)
            (Instance_store.pop_expired_h s.bucket ~expired:(fun i ->
                 Kernel.expired g.g_tau i e));
          let scan =
            Kernel.candidates g.g_k s e <> []
            || Kernel.guards_may_fire g.g_k s e
            || is_merge g s
               && Array.exists
                    (fun o ->
                      o.o_bit land rmask <> 0
                      && (Kernel.candidates o.o_k o.o_merge e <> []
                         || Kernel.guards_may_fire o.o_k o.o_merge e))
                    g.g_owners
          in
          if scan && Instance_store.handle_size s.bucket > 0 then begin
            let insts = Instance_store.take_all_h s.bucket in
            let stayed =
              List.filter (fun i -> consume_shared g s i e rmask ~fresh:false) insts
            in
            Instance_store.put_back_h s.bucket stayed
          end
        end)
      g.g_slots;
    Array.iter
      (fun o ->
        if o.o_bit land rmask <> 0 then process_private g o e ~full:true
        else if Instance_store.size o.o_store > 0 then
          process_private g o e ~full:false)
      g.g_owners;
    Instance_store.commit g.g_store;
    (* Only routed owners can have staged instances (a boundary fire or
       a private consume both require routing), so only they commit. *)
    Array.iter
      (fun o ->
        if o.o_bit land rmask <> 0 then begin
          Instance_store.commit o.o_store;
          Metrics.sample_population o.o_k.m o.o_pop
        end
        else if (not o.o_gated) && not o.o_retired then
          Metrics.sample_population o.o_k.m o.o_pop)
      g.g_owners;
    (match g.g_span with None -> () | Some sp -> Telemetry.Span.stop sp tok);
    match g.g_gauge with
    | None -> ()
    | Some gauge -> Telemetry.Gauge.observe gauge (Instance_store.size g.g_store)
  end

(* The owner's accepting instances, in the engine's close order — the
   merge bucket for an ender (which accepts there), its private
   accepting buckets in slot order otherwise — handed to [emit] through
   the kernel's flush without leaving their buckets. *)
let flush_owner g o ~emit =
  if o.o_is_ender then
    Kernel.flush o.o_k ~owner:o.o_bit
      (Instance_store.items_h g.g_merge.bucket)
      ~emit
  else
    Array.iter
      (fun (slot : Kernel.slot) ->
        if slot.accepting then
          Kernel.flush o.o_k (Instance_store.items_h slot.bucket) ~emit)
      o.o_slots

let close_merged g =
  Array.iter
    (fun o ->
      flush_owner g o ~emit:(emit_owner g o);
      Instance_store.clear o.o_store;
      o.o_pop <- 0;
      (* Expiries with no later kept event are never counted. *)
      o.o_deferred_expired <- 0)
    g.g_owners;
  Instance_store.clear g.g_store

(* ------------------------------------------------------------------ *)
(* The plan: units, index, dispatch.                                  *)
(* ------------------------------------------------------------------ *)

type feed_mode =
  | Always  (** whole feed: unroutable, or a strategy that needs it *)
  | Routed of { gated : bool }
      (** only routed events (plus, when not gated, any event arriving
          while the unit holds instances — expiry timing) *)

type single = {
  mutable s_regs : int list;
  mutable s_retired : bool;  (* all registrations gone: executor closed *)
  s_automaton : Automaton.t;
  s_exec : Executor.packed;
  s_mode : feed_mode;
  mutable s_fed : int;
  mutable s_routed : int;
  mutable s_live : bool;  (* population > 0 after the last flush *)
  mutable s_buf : Event.t array;
  mutable s_buf_n : int;
  mutable s_pending_routed : bool;
}

type unit_state = U_single of single | U_merged of merged

type t = {
  sp_options : Engine.options;
  sp_regs : reg array;
  sp_units : unit_state array;
  sp_reg_unit : (int * int) array;
      (* registration -> (unit index, owner index or -1) *)
  sp_index : Predicate_index.t;
  sp_slot_target : (int * int) array;  (* index slot -> (unit, owner|-1) *)
  sp_rmask : int array;  (* per-unit scratch: owner bits routed this event *)
  sp_retired : bool array;  (* per registration: removed by {!retire} *)
  sp_templates : int list list;
  mutable sp_total_events : int;
  mutable sp_last_ts : Time.t option;
  mutable sp_closed : bool;
  sp_c_eval : Telemetry.Counter.t option;
  sp_c_saved : Telemetry.Counter.t option;
  mutable sp_synced_eval : int;
  mutable sp_synced_saved : int;
}

let create ~options regs_list =
  let regs = Array.of_list regs_list in
  let { g_units; g_templates } = group_registrations ~options regs in
  let n_merged = ref 0 in
  (* Each built unit carries the routing clauses its index slot should
     register ([None] for merged groups, whose owners register their own
     clauses below). *)
  let built =
    Array.of_list
      (List.map
         (function
           | S_single u ->
               let mode, clauses, exec_options =
                 match routing options u with
                 | None -> (Always, None, options)
                 | Some (cl, gated) ->
                     (* A gated [`Plain] unit receives only events its
                        strong filter keeps, so the executor's own filter
                        pass is redundant work: strip it. The metrics
                        difference is compensated at snapshot. *)
                     let opts =
                       if gated && u.a_strategy = `Plain then
                         { options with Engine.filter = Event_filter.No_filter }
                       else options
                     in
                     (Routed { gated }, Some cl, opts)
               in
               ( U_single
                   {
                     s_regs = u.a_regs;
                     s_retired = false;
                     s_automaton = u.a_automaton;
                     s_exec =
                       Executor.create ~options:exec_options u.a_strategy
                         u.a_automaton;
                     s_mode = mode;
                     s_fed = 0;
                     s_routed = 0;
                     s_live = false;
                     s_buf = [||];
                     s_buf_n = 0;
                     s_pending_routed = false;
                   },
                 clauses )
           | S_merged { depth; members } ->
               let idx = !n_merged in
               incr n_merged;
               ( U_merged
                   (create_merged ~options ~telemetry_idx:idx ~depth members),
                 None ))
         g_units)
  in
  let units = Array.map fst built in
  let reg_unit = Array.make (Array.length regs) (-1, -1) in
  Array.iteri
    (fun ui -> function
      | U_single s -> List.iter (fun r -> reg_unit.(r) <- (ui, -1)) s.s_regs
      | U_merged g ->
          Array.iteri
            (fun oi o -> List.iter (fun r -> reg_unit.(r) <- (ui, oi)) o.o_regs)
            g.g_owners)
    units;
  (* Index slots: one per routed single, one per merged owner. A merged
     owner without clauses registers [None] (woken on every event). *)
  let slots = ref [] and slot_targets = ref [] in
  let push clauses target =
    slots := clauses :: !slots;
    slot_targets := target :: !slot_targets
  in
  Array.iteri
    (fun ui (unit, clauses) ->
      match unit with
      | U_single s -> (
          match s.s_mode with
          | Always -> ()
          | Routed _ -> push clauses (ui, -1))
      | U_merged g ->
          Array.iteri
            (fun oi o ->
              push
                (Event_filter.strong_clauses (Automaton.pattern o.o_automaton))
                (ui, oi))
            g.g_owners)
    built;
  let index = Predicate_index.create (Array.of_list (List.rev !slots)) in
  let c_eval, c_saved =
    match options.Engine.telemetry with
    | None -> (None, None)
    | Some tl ->
        ( Some (Telemetry.counter tl "multi.shared.predicates_evaluated"),
          Some (Telemetry.counter tl "multi.shared.predicates_saved") )
  in
  {
    sp_options = options;
    sp_regs = regs;
    sp_units = units;
    sp_reg_unit = reg_unit;
    sp_index = index;
    sp_slot_target = Array.of_list (List.rev !slot_targets);
    sp_rmask = Array.make (Array.length units) 0;
    sp_retired = Array.make (Array.length regs) false;
    sp_templates = g_templates;
    sp_total_events = 0;
    sp_last_ts = None;
    sp_closed = false;
    sp_c_eval = c_eval;
    sp_c_saved = c_saved;
    sp_synced_eval = 0;
    sp_synced_saved = 0;
  }

let sync_counters t =
  match t.sp_c_eval with
  | None -> ()
  | Some c ->
      let e = Predicate_index.evaluated t.sp_index in
      Telemetry.Counter.add c (e - t.sp_synced_eval);
      t.sp_synced_eval <- e;
      let s = Predicate_index.saved t.sp_index in
      (match t.sp_c_saved with
      | Some cs -> Telemetry.Counter.add cs (s - t.sp_synced_saved)
      | None -> ());
      t.sp_synced_saved <- s

let out_of_order = "Multi.feed: events out of chronological order"

let check_ts t ts =
  (match t.sp_last_ts with
  | Some last when Time.( <. ) ts last -> invalid_arg out_of_order
  | Some _ | None -> ());
  t.sp_last_ts <- Some ts

(* Routing decision for one event: sets the pending flag on routed
   singles and accumulates owner bits in the per-unit [sp_rmask] scratch
   (consumed and reset by the caller when it processes each group). *)
let dispatch t e =
  List.iter
    (fun slot ->
      let ui, oi = t.sp_slot_target.(slot) in
      match t.sp_units.(ui) with
      | U_single s ->
          if not s.s_retired then begin
            s.s_pending_routed <- true;
            s.s_routed <- s.s_routed + 1
          end
      | U_merged g ->
          let o = g.g_owners.(oi) in
          if not o.o_retired then begin
            o.o_routed <- o.o_routed + 1;
            t.sp_rmask.(ui) <- t.sp_rmask.(ui) lor o.o_bit
          end)
    (Predicate_index.relevant t.sp_index e)

let take_rmask t ui =
  let m = t.sp_rmask.(ui) in
  t.sp_rmask.(ui) <- 0;
  m

let single_take s =
  match s.s_mode with
  | Always -> true
  | Routed { gated } ->
      if s.s_pending_routed then true else if gated then false else s.s_live

let single_feed_now s e =
  let take = (not s.s_retired) && single_take s in
  s.s_pending_routed <- false;
  if take then begin
    s.s_fed <- s.s_fed + 1;
    let completed = Executor.feed s.s_exec e in
    s.s_live <- Executor.population s.s_exec > 0;
    completed
  end
  else []

(* Emissions an owner accumulated since a previously captured list
   (physical suffix check — lists only grow by consing). *)
let emissions_since (o : owner) before =
  let rec delta acc l =
    if l == before then acc
    else match l with [] -> acc | x :: tl -> delta (x :: acc) tl
  in
  delta [] o.o_emissions

(* Drain the group's emitter list: every owner that emitted since its
   last collection hands out the delta past its cursor. Owners that
   stayed quiet cost nothing — the feed paths never scan [g_owners]. *)
let collect_merged g ui out =
  match g.g_emitters with
  | [] -> ()
  | emitters ->
      g.g_emitters <- [];
      List.iter
        (fun o ->
          o.o_marked <- false;
          (match emissions_since o o.o_base with
          | [] -> ()
          | completed -> out := (ui, o.o_index, completed) :: !out);
          o.o_base <- o.o_emissions)
        emitters

(* Completions, fanned out to every registered name in registration
   order (each name tagged with its own registration index, so alias
   fan-out interleaves correctly with other units' results). *)
let assemble t completions =
  let tagged =
    List.concat_map
      (fun (ui, oi, completed) ->
        let regs =
          match t.sp_units.(ui) with
          | U_single s -> s.s_regs
          | U_merged g -> g.g_owners.(oi).o_regs
        in
        List.map (fun r -> (r, (t.sp_regs.(r).r_name, completed))) regs)
      completions
  in
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) tagged)

let feed t e =
  if t.sp_closed then invalid_arg "Multi.feed: query set is closed";
  check_ts t (Event.ts e);
  t.sp_total_events <- t.sp_total_events + 1;
  dispatch t e;
  let out = ref [] in
  Array.iteri
    (fun ui unit ->
      match unit with
      | U_single s -> (
          match single_feed_now s e with
          | [] -> ()
          | completed -> out := (ui, -1, completed) :: !out)
      | U_merged g ->
          process_merged g e (take_rmask t ui);
          collect_merged g ui out)
    t.sp_units;
  sync_counters t;
  assemble t (List.rev !out)

let flush_single s =
  if s.s_buf_n > 0 then begin
    let chunk = Array.sub s.s_buf 0 s.s_buf_n in
    s.s_buf_n <- 0;
    s.s_fed <- s.s_fed + Array.length chunk;
    let completed = Executor.feed_batch s.s_exec chunk in
    s.s_live <- Executor.population s.s_exec > 0;
    completed
  end
  else []

let feed_batch t events =
  if t.sp_closed then invalid_arg "Multi.feed_batch: query set is closed";
  let n = Array.length events in
  if n = 0 then []
  else begin
    for i = 0 to n - 1 do
      check_ts t (Event.ts events.(i))
    done;
    t.sp_total_events <- t.sp_total_events + n;
    (* Size the singles' sub-batch buffers; merged emissions drain
       through the group emitter lists after the chunk. *)
    Array.iter
      (function
        | U_single s ->
            if Array.length s.s_buf < n then s.s_buf <- Array.make n events.(0);
            s.s_buf_n <- 0
        | U_merged _ -> ())
      t.sp_units;
    Array.iter
      (fun e ->
        dispatch t e;
        Array.iteri
          (fun ui unit ->
            match unit with
            | U_single s ->
                if (not s.s_retired) && single_take s then begin
                  s.s_buf.(s.s_buf_n) <- e;
                  s.s_buf_n <- s.s_buf_n + 1;
                  (* a routed event may create instances: from here the
                     unit must see the rest of the chunk when not gated *)
                  if s.s_pending_routed then s.s_live <- true
                end;
                s.s_pending_routed <- false
            | U_merged g -> process_merged g e (take_rmask t ui))
          t.sp_units)
      events;
    let out = ref [] in
    Array.iteri
      (fun ui unit ->
        match unit with
        | U_single s -> (
            match flush_single s with
            | [] -> ()
            | completed -> out := (ui, -1, completed) :: !out)
        | U_merged g -> collect_merged g ui out)
      t.sp_units;
    sync_counters t;
    assemble t (List.rev !out)
  end

let close t =
  if t.sp_closed then []
  else begin
    t.sp_closed <- true;
    let out = ref [] in
    Array.iteri
      (fun ui unit ->
        match unit with
        | U_single s -> (
            if not s.s_retired then
              match Executor.close s.s_exec with
              | [] -> ()
              | flushed -> out := (ui, -1, flushed) :: !out)
        | U_merged g ->
            close_merged g;
            collect_merged g ui out)
      t.sp_units;
    sync_counters t;
    assemble t (List.rev !out)
  end

(* ------------------------------------------------------------------ *)
(* Owner-mask retirement: remove one registration mid-stream.         *)
(* ------------------------------------------------------------------ *)

(* Retiring the last registration of a merged owner ends that member's
   run: its bit is cleared from every shared instance — instances owned
   by nobody else die with it — and its private store is emptied. The
   surviving owners' masks, stores and metrics are untouched, so their
   behaviour from here on equals a plan built without the retired
   member. *)
let retire_owner g (o : owner) =
  (* Clear the owner's bit from the shared region; sole-owner instances
     drop out entirely. *)
  Array.iter
    (fun (slot : Kernel.slot) ->
      if Instance_store.handle_size slot.bucket > 0 then begin
        let insts = Instance_store.take_all_h slot.bucket in
        let kept =
          List.filter
            (fun (i : Kernel.instance) ->
              let m = i.owners land lnot o.o_bit in
              if m = 0 then false
              else begin
                i.owners <- m;
                true
              end)
            insts
        in
        Instance_store.put_back_h slot.bucket kept
      end)
    g.g_slots;
  Instance_store.clear o.o_store;
  o.o_pop <- 0;
  o.o_deferred_expired <- 0;
  o.o_retired <- true;
  o.o_base <- o.o_emissions;
  g.g_fresh.owners <- g.g_fresh.owners land lnot o.o_bit;
  g.g_all_gated <-
    Array.for_all (fun o -> o.o_retired || o.o_gated) g.g_owners

let events_fed t = t.sp_total_events

(* ------------------------------------------------------------------ *)
(* Read-side: per-registration results.                               *)
(* ------------------------------------------------------------------ *)

let adjust_metrics t ~mode ~fed snap =
  let n = t.sp_total_events in
  match mode with
  | Always -> snap
  | Routed { gated } ->
      if gated then
        {
          snap with
          Metrics.events_seen = n;
          events_filtered = snap.Metrics.events_filtered + (n - fed);
        }
      else
        {
          snap with
          Metrics.events_seen = n;
          instances_created = snap.Metrics.instances_created + (n - fed);
        }

let owner_metrics t (o : owner) =
  let n = t.sp_total_events in
  let snap = Metrics.snapshot o.o_k.m in
  if o.o_gated then
    {
      snap with
      Metrics.events_seen = n;
      events_filtered = snap.Metrics.events_filtered + (n - o.o_routed);
      instances_created = snap.Metrics.instances_created + o.o_routed;
    }
  else
    {
      snap with
      Metrics.events_seen = n;
      instances_created = snap.Metrics.instances_created + n;
    }

let reg_raw t r =
  match t.sp_reg_unit.(r) with
  | ui, -1 -> (
      match t.sp_units.(ui) with
      | U_single s -> Executor.emitted s.s_exec
      | U_merged _ -> assert false)
  | ui, oi -> (
      match t.sp_units.(ui) with
      | U_merged g -> List.rev g.g_owners.(oi).o_emissions
      | U_single _ -> assert false)

let reg_metrics t r =
  match t.sp_reg_unit.(r) with
  | ui, -1 -> (
      match t.sp_units.(ui) with
      | U_single s ->
          adjust_metrics t ~mode:s.s_mode ~fed:s.s_fed
            (Executor.metrics s.s_exec)
      | U_merged _ -> assert false)
  | ui, oi -> (
      match t.sp_units.(ui) with
      | U_merged g -> owner_metrics t g.g_owners.(oi)
      | U_single _ -> assert false)

type query_result = {
  q_name : string;
  q_automaton : Automaton.t;
  q_alias : int;  (** registrations sharing this id share identical raw *)
  q_raw : Substitution.t list;
  q_metrics : Metrics.snapshot;
}

let result_of t r =
  let ui, oi = t.sp_reg_unit.(r) in
  {
    q_name = t.sp_regs.(r).r_name;
    q_automaton = t.sp_regs.(r).r_automaton;
    q_alias = (ui * (max_owners + 2)) + oi + 1;
    q_raw = reg_raw t r;
    q_metrics = reg_metrics t r;
  }

let results t =
  List.filter_map
    (fun r -> if t.sp_retired.(r) then None else Some (result_of t r))
    (List.init (Array.length t.sp_regs) Fun.id)

let population t =
  (* Each registered name counts its instances, as independent execution
     would: aliases multiply. *)
  let acc = ref 0 in
  Array.iteri
    (fun r (ui, oi) ->
      if not t.sp_retired.(r) then
        acc :=
          !acc
          +
          match t.sp_units.(ui) with
          | U_single s -> Executor.population s.s_exec
          | U_merged g -> g.g_owners.(oi).o_pop)
    t.sp_reg_unit;
  !acc

let retire t name =
  if t.sp_closed then invalid_arg "Shared_plan.retire: plan is closed";
  let r =
    let found = ref (-1) in
    Array.iteri
      (fun i (reg : reg) ->
        if !found < 0 && (not t.sp_retired.(i)) && String.equal reg.r_name name
        then found := i)
      t.sp_regs;
    if !found < 0 then
      invalid_arg ("Shared_plan.retire: unknown query " ^ name)
    else !found
  in
  (* Capture the registration's outcome-to-date before mutating, close
     order included; the snapshot keeps its meaning after retirement
     because nothing reads the unit's probes for this name again. The
     name's run ends as [Engine.close] would end it, with the flush of
     its accepting instances — read in place while an aliased sibling
     keeps them alive. *)
  let emitted, flushed, metrics =
    match t.sp_reg_unit.(r) with
    | ui, -1 -> (
        match t.sp_units.(ui) with
        | U_single s ->
            s.s_regs <- List.filter (fun x -> x <> r) s.s_regs;
            let flushed =
              if s.s_regs = [] then begin
                (* Last name on the unit: the executor's run ends here,
                   its flush counted among its own emissions. *)
                ignore (Executor.close s.s_exec);
                s.s_retired <- true;
                s.s_live <- false;
                []
              end
              else Executor.accepting s.s_exec
            in
            ( Executor.emitted s.s_exec,
              flushed,
              adjust_metrics t ~mode:s.s_mode ~fed:s.s_fed
                (Executor.metrics s.s_exec) )
        | U_merged _ -> assert false)
    | ui, oi -> (
        match t.sp_units.(ui) with
        | U_merged g ->
            let o = g.g_owners.(oi) in
            o.o_regs <- List.filter (fun x -> x <> r) o.o_regs;
            let flushed = ref [] in
            flush_owner g o ~emit:(fun inst ->
                flushed := Kernel.substitution inst :: !flushed);
            let metrics = owner_metrics t o in
            if o.o_regs = [] then retire_owner g o;
            (List.rev o.o_emissions, List.rev !flushed, metrics)
        | U_single _ -> assert false)
  in
  t.sp_retired.(r) <- true;
  {
    q_name = name;
    q_automaton = t.sp_regs.(r).r_automaton;
    q_alias =
      (let ui, oi = t.sp_reg_unit.(r) in
       (ui * (max_owners + 2)) + oi + 1);
    q_raw = emitted @ flushed;
    q_metrics =
      {
        metrics with
        Metrics.matches_emitted =
          metrics.Metrics.matches_emitted + List.length flushed;
      };
  }

(* ------------------------------------------------------------------ *)
(* Introspection for benchmarks and the CLI.                          *)
(* ------------------------------------------------------------------ *)

type unit_summary = {
  u_names : string list;
  u_kind : [ `Single | `Merged of int ];
  u_routed : bool;
  u_gated : bool;
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

let stats t =
  let units =
    Array.to_list
      (Array.map
         (function
           | U_single s ->
               [
                 {
                   u_names =
                     List.map (fun r -> t.sp_regs.(r).r_name) s.s_regs;
                   u_kind = `Single;
                   u_routed = (match s.s_mode with Always -> false | _ -> true);
                   u_gated =
                     (match s.s_mode with
                     | Routed { gated } -> gated
                     | Always -> false);
                 };
               ]
           | U_merged g ->
               Array.to_list
                 (Array.map
                    (fun o ->
                      {
                        u_names =
                          List.map (fun r -> t.sp_regs.(r).r_name) o.o_regs;
                        u_kind = `Merged g.g_depth;
                        u_routed = true;
                        u_gated = o.o_gated;
                      })
                    g.g_owners))
         t.sp_units)
    |> List.concat
  in
  let aliased =
    List.fold_left (fun acc u -> acc + max 0 (List.length u.u_names - 1)) 0 units
  in
  let merged_groups, merged_queries =
    Array.fold_left
      (fun (gs, qs) -> function
        | U_merged g ->
            ( gs + 1,
              qs
              + Array.fold_left
                  (fun a o -> a + List.length o.o_regs)
                  0 g.g_owners )
        | U_single _ -> (gs, qs))
      (0, 0) t.sp_units
  in
  {
    st_units = units;
    st_merged_groups = merged_groups;
    st_merged_queries = merged_queries;
    st_aliased_queries = aliased;
    st_template_groups =
      List.map
        (fun g -> List.map (fun r -> t.sp_regs.(r).r_name) g)
        t.sp_templates;
    st_index_atoms = Predicate_index.n_atoms t.sp_index;
    st_index_evaluated = Predicate_index.evaluated t.sp_index;
    st_index_saved = Predicate_index.saved t.sp_index;
    st_index_hit_rate = Predicate_index.hit_rate t.sp_index;
  }

(* ------------------------------------------------------------------ *)
(* Sharding for the domain-parallel mode.                             *)
(* ------------------------------------------------------------------ *)

(* Split registrations into [shards] lists, keeping every unit (alias
   set, merged group) whole so each worker re-derives the same grouping
   on its subset. Greedy by member count, deterministic. *)
let partition ~options ~shards regs_list =
  let regs = Array.of_list regs_list in
  let { g_units; _ } = group_registrations ~options regs in
  let unit_regs =
    List.map
      (function
        | S_single u -> u.a_regs
        | S_merged { members; _ } -> List.concat_map (fun u -> u.a_regs) members)
      g_units
  in
  let shard_load = Array.make shards 0 in
  let shard_regs = Array.make shards [] in
  List.iter
    (fun rs ->
      let best = ref 0 in
      for i = 1 to shards - 1 do
        if shard_load.(i) < shard_load.(!best) then best := i
      done;
      shard_load.(!best) <- shard_load.(!best) + List.length rs;
      shard_regs.(!best) <- List.rev_append rs shard_regs.(!best))
    unit_regs;
  Array.map
    (fun rs -> List.map (fun r -> regs.(r)) (List.sort Int.compare (List.rev rs)))
    shard_regs
