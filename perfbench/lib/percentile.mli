(** Percentiles of timing samples, and the rule for when a sample
    supports one.

    A percentile [p] (a fraction, e.g. [0.99]) is read by nearest rank:
    the smallest sample with at least [p] of the samples at or below it.
    It is {e supported} when at least ten samples lie beyond it —
    [n * (1 - p) >= 10] — so a p99 needs 1000 samples and a median 20.
    Unsupported percentiles are still computed (the nearest rank is
    always defined for [n >= 1]) but reported with their sample count
    and flagged, never silently. *)

type t = {
  p : float;
  value : float;  (** [nan] when there are no samples *)
  samples : int;
  supported : bool;
}

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p] over an ascending array; [nan] when empty. *)

val min_samples : float -> int
(** Fewest samples that support [p]. *)

val supported : n:int -> float -> bool

val of_samples : float array -> float -> t
(** Sorts a copy and reads the percentile. *)

val median : float array -> float
(** [nearest_rank] at 0.5 over a sorted copy; [nan] when empty. *)
