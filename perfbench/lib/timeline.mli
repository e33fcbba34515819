(** The best timeline of a run's passes.

    A pass makes the same timed calls, in the same order, on the same
    input as every other pass of its run, from a compacted heap, so call
    [i] does the same work (collection included) in each. Interference
    from other tenants of a shared host only ever lengthens a call. The
    best timeline runs the calls back to back, each taking its fastest
    time over the passes: the pass as it runs when nothing slows it,
    assembled from moments anywhere in the run. *)

val best : float array list -> float array option
(** Elementwise minimum of the passes' call durations; [None] when there
    are no passes or two passes made a different number of calls. *)

val total : float array -> float
(** Length of the timeline. *)

val latencies : float array -> (int * int) array -> float array
(** [latencies best spans]: for each [(from, upto)] — the call that
    handed a match's trigger over and the call that returned the match —
    the time from the start of call [from] to the end of call [upto] on
    the timeline. Requires [from <= upto]. *)
