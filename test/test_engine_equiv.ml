(* Store-equivalence property tests: the engine's state-indexed
   instance store must be observationally identical to Algorithm 1's
   flat pool Ω — same raw emissions, same finalized matches, same
   metrics — across the option grid (constant pre-check on/off, both
   finalize policies). The flat pool lives here, as [flat_run], built on
   the exported ConsumeEvent kernel. The hash-based finalize pipeline is
   likewise checked against a direct transcription of Definition 2's
   conditions 4-5 built from the exported primitives. *)

open Ses_core
open Ses_gen

let with_workload seed f =
  let rng = Prng.create (Int64.of_int seed) in
  let pat = Random_workload.pattern rng Random_workload.default_pattern in
  let r = Random_workload.relation rng Random_workload.default_relation in
  f pat r

let canon_sorted substs =
  List.sort Substitution.compare_canonical
    (List.map Substitution.canonical substs)

let run ~precheck ~policy automaton r =
  let options =
    { Engine.default_options with precheck_constants = precheck; policy }
  in
  Engine.run_relation ~options automaton r

(* Algorithm 1 verbatim: Ω is one list, rescanned in full on every
   event, each instance either expiring (emitting when accepting) or
   consuming the event through the kernel's ConsumeEvent; successors and
   untouched survivors form the next Ω. At end of input the accepting
   instances flush. Counters are recorded exactly where the engine
   records them. *)
let flat_run ~precheck ~policy automaton r =
  let p = Automaton.pattern automaton in
  let k = Kernel.create ~precheck p in
  (* The slots intern their buckets in a store that is never filled. *)
  let store = Kernel.store () in
  let slots = List.map (Kernel.slot automaton store) (Automaton.states automaton) in
  let slot_of q =
    List.find (fun (s : Kernel.slot) -> Varset.equal s.slot_state q) slots
  in
  let tau = Automaton.tau automaton in
  let accepting (inst : Kernel.instance) =
    Varset.equal inst.state (Automaton.accept automaton)
  in
  let fresh =
    Kernel.fresh ~n_vars:(Ses_pattern.Pattern.n_vars p) ~owners:1
      (Automaton.start automaton)
  in
  let raw = ref [] in
  let emit inst =
    Metrics.on_match k.m;
    raw := Kernel.substitution inst :: !raw
  in
  let omega = ref [] in
  Ses_event.Relation.iter
    (fun e ->
      Metrics.on_event k.m;
      Kernel.tick k;
      Metrics.on_instance_created k.m;
      let next = ref [] in
      List.iter
        (fun (inst : Kernel.instance) ->
          if Kernel.expired tau inst e then begin
            Metrics.on_expired k.m;
            if accepting inst then Kernel.flush k [ inst ] ~emit
          end
          else
            match
              Kernel.consume k (slot_of inst.state) inst e
                ~on_succ:(fun _ succ -> next := succ :: !next)
            with
            | Kernel.Kept -> next := inst :: !next
            | Kernel.Fired | Kernel.Killed | Kernel.Spent -> ())
        (fresh :: !omega);
      omega := List.rev !next;
      Metrics.sample_population k.m (List.length !omega))
    r;
  Kernel.flush k (List.filter accepting !omega) ~emit;
  let raw = List.rev !raw in
  {
    Engine.matches = Substitution.finalize ~policy p raw;
    raw;
    metrics = Metrics.snapshot k.m;
  }

(* The option grid shared by the parity properties below. *)
let grid =
  [
    (true, Substitution.Operational);
    (false, Substitution.Operational);
    (true, Substitution.Literal);
    (false, Substitution.Literal);
  ]

(* Raw emissions and finalized matches agree between the indexed store
   and the flat pool for every option combination. Raw output is
   compared as a multiset-free sorted list of canonical forms: the
   indexed store visits states in bucket order, so within-event emission
   order may differ, but the set of emissions may not. *)
let stores_agree_on_output =
  QCheck.Test.make ~count:120 ~name:"indexed store output = flat store output"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          List.for_all
            (fun (precheck, policy) ->
              let flat = flat_run ~precheck ~policy automaton r in
              let idx = run ~precheck ~policy automaton r in
              canon_sorted flat.Engine.raw = canon_sorted idx.Engine.raw
              && canon_sorted flat.Engine.matches
                 = canon_sorted idx.Engine.matches)
            grid))

(* The runtime counters agree as well: bucket skipping only ever avoids
   work the flat scan would not have recorded (states with no candidate
   transitions fire nothing), so every counter — including max |Ω| —
   must be bit-identical. *)
let stores_agree_on_metrics =
  QCheck.Test.make ~count:120 ~name:"indexed store metrics = flat store metrics"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          List.for_all
            (fun (precheck, policy) ->
              let flat = flat_run ~precheck ~policy automaton r in
              let idx = run ~precheck ~policy automaton r in
              flat.Engine.metrics = idx.Engine.metrics)
            grid))

(* Direct transcription of finalize: dedup by canonical form, apply the
   policy with the exported one-pair-at-a-time primitives, sort. This is
   the O(n²·m log m) algorithm the hash-based pipeline replaced. *)
let reference_finalize policy substs =
  let candidates =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun s ->
        let c = Substitution.canonical s in
        if Hashtbl.mem seen c then false
        else begin
          Hashtbl.add seen c ();
          true
        end)
      substs
  in
  let keep =
    match policy with
    | Substitution.Operational ->
        fun s ->
          not
            (List.exists
               (fun s' -> Substitution.proper_subset s s')
               candidates)
    | Substitution.Literal ->
        fun s ->
          Substitution.maximal_within ~candidates s
          && Substitution.skip_till_next_within ~candidates s
  in
  List.sort
    (fun a b ->
      let c =
        Option.compare Ses_event.Time.compare (Substitution.min_ts a)
          (Substitution.min_ts b)
      in
      if c <> 0 then c
      else
        Substitution.compare_canonical (Substitution.canonical a)
          (Substitution.canonical b))
    (List.filter keep candidates)

let finalize_matches_reference =
  QCheck.Test.make ~count:120 ~name:"finalize = reference finalize"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          let raw = (Engine.run_relation automaton r).Engine.raw in
          List.for_all
            (fun policy ->
              List.map Substitution.canonical
                (Substitution.finalize ~policy pat raw)
              = List.map Substitution.canonical (reference_finalize policy raw))
            [ Substitution.Operational; Substitution.Literal ]))

(* The O(1) population counter of the indexed store never drifts from
   the actual pool: after every event the counter equals the length of
   the instance dump, and the per-state histogram sums to it. *)
let population_counter_consistent =
  QCheck.Test.make ~count:75 ~name:"population counter matches the pool"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          let st = Engine.create automaton in
          Seq.for_all
            (fun e ->
              ignore (Engine.feed st e);
              let by_state = Engine.population_by_state st in
              Engine.population st
              = List.fold_left (fun acc (_, n) -> acc + n) 0 by_state)
            (Ses_event.Relation.to_seq r)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      stores_agree_on_output;
      stores_agree_on_metrics;
      finalize_matches_reference;
      population_counter_consistent;
    ]
