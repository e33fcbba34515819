open Ses_event
open Ses_pattern

type instance = {
  id : int;
  state : Varset.t;
  bindings : Substitution.binding list;
  counts : int array;
  first_ts : Time.t;
  mutable owners : int;
}

type transition = {
  transition : Automaton.transition;
  const_conds : Condition.t list;
  var_conds : Condition.t list;
  tgt_bucket : instance Instance_store.handle;
}

type guard = {
  neg_var : int;
  guard_conds : Condition.t list;
  guard_consts : Condition.t list;
}

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
  max_counts : int option array;
  minima : (int * int) list;
  precheck : bool;
  m : Metrics.t;
  clock : clock;
}

type fate =
  | Fired
  | Killed
  | Kept
  | Spent

let new_clock () = { stamp = 0; next_id = 1 }

let create ?(precheck = true) ?(clock = new_clock ()) ?(metrics = Metrics.create ())
    p =
  let n = Pattern.n_vars p in
  {
    max_counts = Array.init n (Pattern.max_count p);
    minima =
      List.filter_map
        (fun v ->
          let m = Pattern.min_count p v in
          if m > 1 then Some (v, m) else None)
        (List.init n Fun.id);
    precheck;
    m = metrics;
    clock;
  }

let tick k = k.clock.stamp <- k.clock.stamp + 1

let store () =
  Instance_store.create ~ts_of:(fun i -> i.first_ts) ~seq_of:(fun i -> i.id) ()

let fresh ~n_vars ~owners state =
  {
    id = 0;
    state;
    bindings = [];
    counts = Array.make (max n_vars 1) 0;
    first_ts = 0;
    owners;
  }

let is_fresh inst = match inst.bindings with [] -> true | _ :: _ -> false

let expired tau inst e =
  (not (is_fresh inst)) && Time.span (Event.ts e) inst.first_ts > tau

let substitution inst = List.rev inst.bindings

(* Negation guards armed at [q]: those of every negation whose boundary
   b makes [q] the state binding exactly the sets 0 .. b. *)
let guards_at p q =
  List.filter_map
    (fun (b, nv) ->
      let prefix =
        Varset.of_list
          (List.concat_map (Pattern.set_vars p) (List.init (b + 1) Fun.id))
      in
      if Varset.equal prefix q then
        let conds = Pattern.conditions_on p nv in
        Some
          {
            neg_var = nv;
            guard_conds = conds;
            guard_consts = List.filter Condition.is_constant conds;
          }
      else None)
    (Pattern.negations p)

let slot ?(keep = fun _ -> true) ?(armed = true) automaton store q =
  let prepare (tr : Automaton.transition) =
    let const_conds, var_conds = List.partition Condition.is_constant tr.conds in
    {
      transition = tr;
      const_conds;
      var_conds;
      tgt_bucket = Instance_store.handle store tr.tgt;
    }
  in
  {
    slot_state = q;
    accepting = Varset.equal q (Automaton.accept automaton);
    prepared =
      List.filter_map
        (fun tr -> if keep tr then Some (prepare tr) else None)
        (Automaton.outgoing automaton q);
    guards = (if armed then guards_at (Automaton.pattern automaton) q else []);
    bucket = Instance_store.handle store q;
    active = [];
    active_stamp = 0;
    guards_may = false;
    guards_stamp = 0;
  }

(* Constant conditions mention exactly one variable; binding it to [e]
   needs no buffer. *)
let rec consts_hold e = function
  | [] -> true
  | (c : Condition.t) :: tl ->
      Condition.holds_binding c ~var:c.var ~event:e [] && consts_hold e tl

let rec binding_holds var e bindings = function
  | [] -> true
  | c :: tl ->
      Condition.holds_binding c ~var ~event:e bindings
      && binding_holds var e bindings tl

let candidates k slot e =
  if not k.precheck then slot.prepared
  else if slot.active_stamp = k.clock.stamp then slot.active
  else begin
    let trs = List.filter (fun pt -> consts_hold e pt.const_conds) slot.prepared in
    slot.active <- trs;
    slot.active_stamp <- k.clock.stamp;
    trs
  end

let guards_may_fire k slot e =
  slot.guards <> []
  &&
  if slot.guards_stamp = k.clock.stamp then slot.guards_may
  else begin
    let may = List.exists (fun g -> consts_hold e g.guard_consts) slot.guards in
    slot.guards_may <- may;
    slot.guards_stamp <- k.clock.stamp;
    may
  end

let fires k pt inst e =
  let tr = pt.transition in
  (* Quantifier maximum: a loop must not bind beyond max. The
     per-instance binding counts make this an array read. *)
  (match k.max_counts.(tr.var) with
  | None -> true
  | Some m -> (not (Varset.mem tr.var tr.src)) || inst.counts.(tr.var) < m)
  && binding_holds tr.var e inst.bindings
       (if k.precheck then pt.var_conds else tr.conds)

let successor k pt inst e =
  let tr = pt.transition in
  let counts = Array.copy inst.counts in
  counts.(tr.var) <- counts.(tr.var) + 1;
  let id = k.clock.next_id in
  k.clock.next_id <- id + 1;
  {
    id;
    state = tr.tgt;
    bindings = (tr.var, e) :: inst.bindings;
    counts;
    first_ts = (if is_fresh inst then Event.ts e else inst.first_ts);
    owners = inst.owners;
  }

let killed slot inst e =
  slot.guards <> []
  && List.exists
       (fun g -> binding_holds g.neg_var e inst.bindings g.guard_conds)
       slot.guards

let rec fire_all k inst e on_succ fired = function
  | [] -> fired
  | pt :: tl ->
      if fires k pt inst e then begin
        Metrics.on_transition k.m;
        Metrics.on_instance_created k.m;
        on_succ pt (successor k pt inst e);
        fire_all k inst e on_succ true tl
      end
      else fire_all k inst e on_succ fired tl

let consume k slot inst e ~on_succ =
  if fire_all k inst e on_succ false (candidates k slot e) then Fired
  else if is_fresh inst then Spent
  else if killed slot inst e then begin
    Metrics.on_killed k.m;
    Killed
  end
  else Kept

let accepts k inst = List.for_all (fun (v, m) -> inst.counts.(v) >= m) k.minima

let flush k ?(owner = -1) insts ~emit =
  List.iter
    (fun inst -> if inst.owners land owner <> 0 && accepts k inst then emit inst)
    insts
