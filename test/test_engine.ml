open Ses_core
open Helpers

(* Simple two-variable sequence <{x}, {y}>. *)
let seq_xy ~within =
  pattern ~within [ [ v "x" ]; [ v "y" ] ] ~where:[ label "x" "x"; label "y" "y" ]

let test_simple_sequence () =
  let p = seq_xy ~within:10 in
  let outcome = run p (rel_l [ ("x", 0); ("y", 3) ]) in
  check_substs p [ [ ("x", 1); ("y", 2) ] ] outcome.Engine.matches

let test_no_match () =
  let p = seq_xy ~within:10 in
  let outcome = run p (rel_l [ ("y", 0); ("x", 3) ]) in
  check_substs p [] outcome.Engine.matches

let test_empty_relation () =
  let p = seq_xy ~within:10 in
  let outcome = run p (Ses_event.Relation.of_rows_exn schema []) in
  check_substs p [] outcome.Engine.matches;
  Alcotest.(check int) "no events" 0 outcome.Engine.metrics.Metrics.events_seen

let test_window_expiry () =
  let p = seq_xy ~within:5 in
  (* y arrives 6 units after x: outside τ. *)
  let outcome = run p (rel_l [ ("x", 0); ("y", 6) ]) in
  check_substs p [] outcome.Engine.matches;
  (* A second x revives the search. *)
  let outcome2 = run p (rel_l [ ("x", 0); ("x", 4); ("y", 6) ]) in
  check_substs p [ [ ("x", 2); ("y", 3) ] ] outcome2.Engine.matches

let test_window_boundary_inclusive () =
  (* span exactly τ is allowed (condition 3 is ≤ τ). *)
  let p = seq_xy ~within:5 in
  let outcome = run p (rel_l [ ("x", 0); ("y", 5) ]) in
  check_substs p [ [ ("x", 1); ("y", 2) ] ] outcome.Engine.matches

let test_skip_till_next_match () =
  (* The first eligible y is bound; the later one is ignored. *)
  let p = seq_xy ~within:10 in
  let outcome = run p (rel_l [ ("x", 0); ("y", 2); ("y", 4) ]) in
  check_substs p [ [ ("x", 1); ("y", 2) ] ] outcome.Engine.matches

let test_emission_via_expiry () =
  (* A match completes, then the window closes long before the stream
     ends: the substitution must be emitted on expiry, not only at the
     final flush. *)
  let p = seq_xy ~within:5 in
  let st = Engine.create (Automaton.of_pattern p) in
  let mk = List.map (fun (l, ts) -> (l, ts)) in
  ignore mk;
  let events = rel_l [ ("x", 0); ("y", 2); ("z", 100); ("z", 200) ] in
  let collected = ref [] in
  Ses_event.Relation.iter
    (fun e -> collected := !collected @ Engine.feed st e)
    events;
  Alcotest.(check int) "emitted before close" 1 (List.length !collected);
  Alcotest.(check int) "nothing at close" 0 (List.length (Engine.close st))

let test_group_greedy_maximal () =
  let p =
    pattern ~within:20
      [ [ vplus "g" ]; [ v "z" ] ]
      ~where:[ label "g" "g"; label "z" "z" ]
  in
  let outcome = run p (rel_l [ ("g", 0); ("g", 1); ("g", 2); ("z", 3) ]) in
  (* MAXIMAL mode: only the largest substitution survives. *)
  check_substs p
    [ [ ("g+", 1); ("g+", 2); ("g+", 3); ("z", 4) ] ]
    outcome.Engine.matches

let test_permutation_within_set () =
  let p =
    pattern ~within:20
      [ [ v "a"; v "b" ]; [ v "z" ] ]
      ~where:[ label "a" "a"; label "b" "b"; label "z" "z" ]
  in
  (* Both orders of a and b match. *)
  let o1 = run p (rel_l [ ("a", 0); ("b", 1); ("z", 2) ]) in
  check_substs p [ [ ("a", 1); ("b", 2); ("z", 3) ] ] o1.Engine.matches;
  let o2 = run p (rel_l [ ("b", 0); ("a", 1); ("z", 2) ]) in
  check_substs p [ [ ("a", 2); ("b", 1); ("z", 3) ] ] o2.Engine.matches

let test_order_across_sets_strict () =
  (* An event of set 2 at the same timestamp as set 1's last event cannot
     match (strict <). Same-relation ties are ordered by sequence, but the
     concatenation's time constraint compares timestamps. *)
  let p = seq_xy ~within:10 in
  let outcome = run p (rel_l [ ("x", 5); ("y", 5) ]) in
  check_substs p [] outcome.Engine.matches

let test_single_set_pattern () =
  let p = pattern ~within:10 [ [ v "a"; v "b" ] ] ~where:[ label "a" "a"; label "b" "b" ] in
  let outcome = run p (rel_l [ ("b", 0); ("a", 1) ]) in
  check_substs p [ [ ("a", 2); ("b", 1) ] ] outcome.Engine.matches

let test_tau_zero_simultaneous () =
  (* τ = 0 requires all events at the same timestamp; within one set that
     is allowed. *)
  let p = pattern ~within:0 [ [ v "a"; v "b" ] ] ~where:[ label "a" "a"; label "b" "b" ] in
  let outcome = run p (rel [ (1, "a", 0, 7); (1, "b", 0, 7) ]) in
  check_substs p [ [ ("a", 1); ("b", 2) ] ] outcome.Engine.matches;
  let apart = run p (rel [ (1, "a", 0, 7); (1, "b", 0, 8) ]) in
  check_substs p [] apart.Engine.matches

let test_nondeterministic_branching () =
  (* Both variables accept label 'm'; one m event can start either
     branch. *)
  let p =
    pattern ~within:10
      [ [ v "a"; v "b" ] ]
      ~where:[ label "a" "m"; label "b" "m" ]
  in
  let outcome = run p (rel_l [ ("m", 0); ("m", 1) ]) in
  (* Two symmetric substitutions over the same events. *)
  check_substs p
    [
      [ ("a", 1); ("b", 2) ];
      [ ("a", 2); ("b", 1) ];
    ]
    outcome.Engine.matches;
  Alcotest.(check bool) "branching occurred" true
    (outcome.Engine.metrics.Metrics.instances_created > 3)

let test_condition_on_timestamp () =
  (* Explicit T conditions in Θ are honoured. *)
  let p =
    pattern ~within:100
      [ [ v "x" ]; [ v "y" ] ]
      ~where:
        [
          label "x" "x";
          label "y" "y";
          Ses_pattern.Pattern.Spec.const "y" "T" Ses_event.Predicate.Ge
            (Ses_event.Value.Int 50);
        ]
  in
  let outcome = run p (rel_l [ ("x", 0); ("y", 10); ("y", 60) ]) in
  (* y at t=10 fails y.T >= 50; the instance skips it and binds the later
     y. *)
  check_substs p [ [ ("x", 1); ("y", 3) ] ] outcome.Engine.matches

let test_value_join_condition () =
  let p =
    pattern ~within:100
      [ [ v "x" ]; [ v "y" ] ]
      ~where:
        [
          label "x" "x";
          label "y" "y";
          Ses_pattern.Pattern.Spec.fields "x" "V" Ses_event.Predicate.Lt "y" "V";
        ]
  in
  let outcome =
    run p (rel [ (1, "x", 5, 0); (1, "y", 3, 1); (1, "y", 9, 2) ])
  in
  check_substs p [ [ ("x", 1); ("y", 3) ] ] outcome.Engine.matches

let test_out_of_order_rejected () =
  let p = seq_xy ~within:10 in
  let st = Engine.create (Automaton.of_pattern p) in
  let e1 = Ses_event.Event.make ~seq:0 ~ts:5 [| Ses_event.Value.Int 1; Ses_event.Value.Str "x"; Ses_event.Value.Int 0 |] in
  let e2 = Ses_event.Event.make ~seq:1 ~ts:3 [| Ses_event.Value.Int 1; Ses_event.Value.Str "y"; Ses_event.Value.Int 0 |] in
  ignore (Engine.feed st e1);
  Alcotest.check_raises "rejects regression"
    (Invalid_argument "Engine.feed: events out of chronological order")
    (fun () -> ignore (Engine.feed st e2))

let test_streaming_equals_batch () =
  let p = query_q1 in
  let automaton = Automaton.of_pattern p in
  let batch = Engine.run_relation automaton figure_1 in
  let st = Engine.create automaton in
  Ses_event.Relation.iter (fun e -> ignore (Engine.feed st e)) figure_1;
  ignore (Engine.close st);
  Alcotest.(check int) "same raw emissions"
    (List.length batch.Engine.raw)
    (List.length (Engine.emitted st));
  Alcotest.(check bool) "same content" true
    (List.for_all2 Substitution.equal batch.Engine.raw (Engine.emitted st))

let test_population_tracking () =
  let p = seq_xy ~within:10 in
  let st = Engine.create (Automaton.of_pattern p) in
  Alcotest.(check int) "initially empty" 0 (Engine.population st);
  Ses_event.Relation.iter (fun e -> ignore (Engine.feed st e)) (rel_l [ ("x", 0) ]);
  Alcotest.(check int) "one live instance" 1 (Engine.population st);
  ignore (Engine.close st);
  Alcotest.(check int) "closed" 0 (Engine.population st)

let test_finalize_toggle () =
  let p = query_q1 in
  let options = { Engine.default_options with Engine.finalize = false } in
  let outcome = run ~options p figure_1 in
  Alcotest.(check int) "raw passthrough"
    (List.length outcome.Engine.raw)
    (List.length outcome.Engine.matches)

let test_precheck_equivalence () =
  (* The constant pre-check is a pure optimization: identical raw and
     finalized output on the running example. *)
  let base = { Engine.default_options with Engine.precheck_constants = false } in
  let opt = { Engine.default_options with Engine.precheck_constants = true } in
  let a = run ~options:base query_q1 figure_1 in
  let b = run ~options:opt query_q1 figure_1 in
  Alcotest.(check (list (list (pair string int))))
    "same raw"
    (substs_repr query_q1 a.Engine.raw)
    (substs_repr query_q1 b.Engine.raw);
  Alcotest.(check (list (list (pair string int))))
    "same matches"
    (substs_repr query_q1 a.Engine.matches)
    (substs_repr query_q1 b.Engine.matches);
  Alcotest.(check int) "same transitions fired"
    a.Engine.metrics.Metrics.transitions_fired
    b.Engine.metrics.Metrics.transitions_fired

let test_store_equivalence () =
  (* Algorithm 1's flat pool (the in-test reference of the store
     equivalence suite) and the indexed store are observationally
     identical on the running example: raw, matches, and every counter. *)
  let flat =
    Test_engine_equiv.flat_run ~precheck:true
      ~policy:Substitution.Operational
      (Automaton.of_pattern query_q1)
      figure_1
  in
  let idx = run query_q1 figure_1 in
  let sorted o =
    List.sort
      (List.compare Helpers.compare_name_seq)
      (substs_repr query_q1 o)
  in
  Alcotest.(check (list (list (pair string int))))
    "same raw" (sorted flat.Engine.raw) (sorted idx.Engine.raw);
  Alcotest.(check (list (list (pair string int))))
    "same matches" (sorted flat.Engine.matches) (sorted idx.Engine.matches);
  Alcotest.(check bool) "same metrics" true
    (flat.Engine.metrics = idx.Engine.metrics)

let test_population_by_state_ordering () =
  (* Descending count; ties broken by state, so the histogram is
     reproducible run to run. *)
  let p = seq_xy ~within:100 in
  let st = Engine.create (Automaton.of_pattern p) in
  Ses_event.Relation.iter
    (fun e -> ignore (Engine.feed st e))
    (rel_l [ ("x", 0); ("x", 1); ("x", 2) ]);
  let h = Engine.population_by_state st in
  let counts = List.map snd h in
  Alcotest.(check (list int)) "descending counts"
    (List.sort (fun a b -> Int.compare b a) counts)
    counts;
  let rec ties_ordered = function
    | (qa, a) :: ((qb, b) :: _ as rest) ->
        (a <> b || Ses_core.Varset.compare qa qb < 0) && ties_ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "ties in state order" true (ties_ordered h);
  Alcotest.(check int) "sums to population" (Engine.population st)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 h)

let test_metrics_consistency () =
  let outcome = run query_q1 figure_1 in
  let m = outcome.Engine.metrics in
  Alcotest.(check int) "events" 14 m.Metrics.events_seen;
  Alcotest.(check int) "none filtered" 0 m.Metrics.events_filtered;
  Alcotest.(check bool) "max tracked" true (m.Metrics.max_simultaneous_instances > 0);
  Alcotest.(check int) "raw = emitted counter" (List.length outcome.Engine.raw)
    m.Metrics.matches_emitted

(* Allocation regression: with no observer installed, ConsumeEvent's
   allocation per fired transition must not grow with the match buffer.
   ⟨{c}, {p+}, {b}⟩ over one c then a run of p events keeps exactly one
   live instance whose p+ buffer grows by one binding per event; the
   minor words per fired transition over a window of p events are
   compared at ~16 and ~256 buffered bindings. An eager O(|buffer|)
   allocation — a rebuilt per-variable list per condition check, or a
   narration buffer built with nobody listening — makes the late window
   several times costlier than the early one. *)
let test_allocation_flat_in_buffer_length () =
  let p =
    pattern ~within:1_000_000
      [ [ v "c" ]; [ vplus "p" ]; [ v "b" ] ]
      ~where:
        [
          label "c" "c";
          label "p" "p";
          label "b" "b";
          Ses_pattern.Pattern.Spec.fields "c" "ID" Ses_event.Predicate.Eq "p"
            "ID";
          Ses_pattern.Pattern.Spec.fields "p" "ID" Ses_event.Predicate.Eq "b"
            "ID";
        ]
  in
  let window = 64 in
  let words_per_transition ~buffered =
    let events =
      rel
        (List.init (buffered + window + 1) (fun i ->
             (1, (if i = 0 then "c" else "p"), 0, i)))
    in
    let st = Engine.create (Automaton.of_pattern p) in
    let feed i = ignore (Engine.feed st (Ses_event.Relation.get events i)) in
    for i = 0 to buffered do
      feed i
    done;
    let fired () = (Engine.metrics st).Metrics.transitions_fired in
    let fired0 = fired () in
    let words0 = Gc.minor_words () in
    for i = buffered + 1 to buffered + window do
      feed i
    done;
    let words = Gc.minor_words () -. words0 in
    let n = fired () - fired0 in
    Alcotest.(check int) "one p+ loop per event" window n;
    words /. float_of_int n
  in
  let short = words_per_transition ~buffered:16 in
  let long = words_per_transition ~buffered:256 in
  if long > 1.5 *. short then
    Alcotest.failf
      "minor words per fired transition grow with the buffer: %.1f at 16 \
       bindings, %.1f at 256"
      short long

let suite =
  [
    Alcotest.test_case "simple sequence" `Quick test_simple_sequence;
    Alcotest.test_case "no match" `Quick test_no_match;
    Alcotest.test_case "empty relation" `Quick test_empty_relation;
    Alcotest.test_case "window expiry" `Quick test_window_expiry;
    Alcotest.test_case "window boundary inclusive" `Quick test_window_boundary_inclusive;
    Alcotest.test_case "skip-till-next-match" `Quick test_skip_till_next_match;
    Alcotest.test_case "emission via expiry" `Quick test_emission_via_expiry;
    Alcotest.test_case "greedy maximal group" `Quick test_group_greedy_maximal;
    Alcotest.test_case "permutations within a set" `Quick test_permutation_within_set;
    Alcotest.test_case "strict order across sets" `Quick test_order_across_sets_strict;
    Alcotest.test_case "single-set pattern" `Quick test_single_set_pattern;
    Alcotest.test_case "tau = 0" `Quick test_tau_zero_simultaneous;
    Alcotest.test_case "nondeterministic branching" `Quick test_nondeterministic_branching;
    Alcotest.test_case "condition on T" `Quick test_condition_on_timestamp;
    Alcotest.test_case "value join" `Quick test_value_join_condition;
    Alcotest.test_case "out-of-order input rejected" `Quick test_out_of_order_rejected;
    Alcotest.test_case "streaming = batch" `Quick test_streaming_equals_batch;
    Alcotest.test_case "population tracking" `Quick test_population_tracking;
    Alcotest.test_case "finalize toggle" `Quick test_finalize_toggle;
    Alcotest.test_case "constant pre-check equivalence" `Quick
      test_precheck_equivalence;
    Alcotest.test_case "flat = indexed store" `Quick test_store_equivalence;
    Alcotest.test_case "population histogram ordering" `Quick
      test_population_by_state_ordering;
    Alcotest.test_case "metrics consistency" `Quick test_metrics_consistency;
    Alcotest.test_case "allocation flat in buffer length" `Quick
      test_allocation_flat_in_buffer_length;
  ]
