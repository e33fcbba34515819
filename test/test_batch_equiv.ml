(* Batch-equivalence properties: for every execution strategy,
   [Executor.feed_batch] must be observationally identical to feeding
   the same events one at a time — same finalized matches (in order),
   same raw emissions (as a multiset), and the same layout-invariant
   metrics — at every chunking of the input, including the degenerate
   batch of one, an awkward prime that never divides the input evenly,
   and a batch larger than any test relation. The deterministic fixture
   pins the two semantically delicate spots: a negation kill and a
   τ-expiry landing exactly on a batch boundary. *)

open Ses_event
open Ses_pattern
open Ses_core
open Ses_gen
open Helpers

let () = Ses_baseline.Brute_force.register ()

let batch_grid = [ 1; 2; 7; 64; 4096 ]

let canon substs = List.map Substitution.canonical substs
let canon_sorted substs =
  List.sort Substitution.compare_canonical (canon substs)

(* Same two layout-variant counters as the parallel-equivalence suite:
   the batched loop pops τ-expired prefixes once per batch, so both the
   moment an expiry is counted and the sampled population peak can
   legitimately differ from the per-event schedule. Everything else
   must agree exactly. *)
let invariant (m : Metrics.snapshot) =
  {
    m with
    Metrics.max_simultaneous_instances = 0;
    Metrics.instances_expired = 0;
  }

type observed = {
  o_matches : (int * int) list list;
  o_raw : (int * int) list list;
  o_metrics : Metrics.snapshot;
}

let events_of r = Array.of_seq (Relation.to_seq r)

(* Run [strategy] over [r], delivering the input per event when
   [batch = None] and in [Array.sub] chunks of the given size
   otherwise, and collect everything equivalence is judged on. *)
let observe ?(domains = 1) ~batch strategy pat r =
  let options = { Engine.default_options with Engine.domains } in
  let exec = Executor.create ~options strategy (Automaton.of_pattern pat) in
  let events = events_of r in
  (match batch with
  | None -> Array.iter (fun e -> ignore (Executor.feed exec e)) events
  | Some b ->
      let n = Array.length events in
      let i = ref 0 in
      while !i < n do
        let len = min b (n - !i) in
        ignore (Executor.feed_batch exec (Array.sub events !i len));
        i := !i + len
      done);
  ignore (Executor.close exec);
  let raw = Executor.emitted exec in
  {
    o_matches = canon (Substitution.finalize pat raw);
    o_raw = canon_sorted raw;
    o_metrics = Executor.metrics exec;
  }

let equivalent reference batched =
  reference.o_matches = batched.o_matches
  && reference.o_raw = batched.o_raw
  && invariant reference.o_metrics = invariant batched.o_metrics

(* The random workload: group variables and τ-expiry are exercised by
   the default spec; the naive oracle is excluded here (its exhaustive
   enumeration is exponential in the 40-event relation) and covered by
   the deterministic fixture below instead. *)
let strategies = [ `Plain; `Partitioned; `Auto; `Brute_force ]

let with_workload seed f =
  let rng = Prng.create (Int64.of_int seed) in
  let pat = Random_workload.pattern rng Random_workload.default_pattern in
  let r = Random_workload.relation rng Random_workload.default_relation in
  f pat r

let batched_equals_per_event =
  QCheck.Test.make ~count:40
    ~name:"feed_batch = per-event feed (all strategies, all chunkings)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          List.for_all
            (fun strategy ->
              let reference = observe ~batch:None strategy pat r in
              List.for_all
                (fun b ->
                  equivalent reference (observe ~batch:(Some b) strategy pat r))
                batch_grid)
            strategies))

(* The sharded executor consumes batches through the domain-pool
   batcher (per-key sub-batches over the worker queues), so it gets its
   own property, across worker counts. Shard-merged metrics follow the
   parallel-equivalence contract, so only outputs are compared here. *)
let sharded_batched_equals_per_event =
  QCheck.Test.make ~count:25
    ~name:"sharded feed_batch = per-event feed (1/2/4 domains)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let pat =
        Random_workload.pattern rng
          {
            Random_workload.default_pattern with
            Random_workload.p_id_join = 1.0;
          }
      in
      let r = Random_workload.relation rng Random_workload.default_relation in
      List.for_all
        (fun domains ->
          let reference =
            observe ~domains ~batch:None `Partitioned pat r
          in
          List.for_all
            (fun b ->
              let batched =
                observe ~domains ~batch:(Some b) `Partitioned pat r
              in
              reference.o_matches = batched.o_matches
              && reference.o_raw = batched.o_raw)
            batch_grid)
        [ 1; 2; 4 ])

(* Deterministic fixture: an ID-pinned negation kill (id 2), a match
   completing before its kill event arrives (id 1), and a τ-expiry that
   the batch-of-7 boundary lands right on — events 1..7 arrive in one
   chunk, so id 4's first [a] (ts 3) is popped as expired only by the
   next chunk's sweep (its [b] at ts 30 is past τ = 20) while its
   second [a] (ts 12) still matches. *)
let neg_pattern =
  Pattern.make_full_exn ~schema:Helpers.schema
    ~sets:[ [ v "a" ]; [ v "b" ] ]
    ~negations:[ (0, v "x") ]
    ~where:
      ([ label "a" "a"; label "b" "b"; label "x" "x" ]
      @ Pattern.Spec.
          [
            fields "a" "ID" Predicate.Eq "b" "ID";
            fields "x" "ID" Predicate.Eq "a" "ID";
          ])
    ~within:20

let neg_relation =
  rel
    [
      (1, "a", 0, 0);
      (2, "a", 0, 1);
      (3, "a", 0, 2);
      (4, "a", 0, 3);
      (2, "x", 0, 5);
      (1, "b", 0, 8);
      (2, "b", 0, 9);
      (3, "b", 0, 10);
      (4, "a", 0, 12);
      (1, "x", 0, 15);
      (4, "b", 0, 30);
    ]

let test_negation_and_expiry_at_boundaries () =
  let expected =
    [ [ ("a", 1); ("b", 6) ]; [ ("a", 3); ("b", 8) ]; [ ("a", 9); ("b", 11) ] ]
  in
  List.iter
    (fun strategy ->
      let name = Executor.strategy_name strategy in
      let reference = observe ~batch:None strategy neg_pattern neg_relation in
      let repr canonical =
        List.sort Helpers.compare_name_seq
          (List.map
             (fun (var, seq) -> (Pattern.var_name neg_pattern var, seq + 1))
             canonical)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s per-event matches" name)
        true
        (List.map repr reference.o_matches = expected);
      List.iter
        (fun b ->
          let batched =
            observe ~batch:(Some b) strategy neg_pattern neg_relation
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s at batch %d" name b)
            true
            (equivalent reference batched))
        batch_grid)
    (`Naive :: strategies);
  List.iter
    (fun domains ->
      let reference =
        observe ~domains ~batch:None `Partitioned neg_pattern neg_relation
      in
      List.iter
        (fun b ->
          let batched =
            observe ~domains ~batch:(Some b) `Partitioned neg_pattern
              neg_relation
          in
          Alcotest.(check bool)
            (Printf.sprintf "sharded at %d domains, batch %d" domains b)
            true
            (reference.o_matches = batched.o_matches
            && reference.o_raw = batched.o_raw))
        batch_grid)
    [ 2; 4 ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ batched_equals_per_event; sharded_batched_equals_per_event ]
  @ [
      Alcotest.test_case "negation + expiry at batch boundaries" `Quick
        test_negation_and_expiry_at_boundaries;
    ]
