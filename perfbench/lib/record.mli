(** One ledger record: a benchmark run's stamps, gate outcome and
    metrics, and the one-line summary the run ends with.

    Every run prints its record as a JSON line ({!to_json}) and then the
    summary ({!summary}) as its last line. The record carries what the
    summary leaves out: the machine and build stamps, the sample count
    behind every metric, and the flags a reader must see before trusting
    a number (an unsupported percentile, a generator that fell behind). *)

type metric = {
  name : string;
  value : float;  (** non-finite values (an infinite bound) survive the round trip *)
  unit_ : string;
  samples : int;  (** observations behind the value (1 for a single count) *)
}

type t = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  run_id : string;
  cores : int;  (** [Domain.recommended_domain_count] *)
  ocaml : string;
  profile : string;  (** dune build profile the program was built with *)
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  flags : string list;
}

val schema_version : string

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json r) = Ok r] (up to [nan],
    which is unequal to itself). *)

val summary : t -> Json.t
(** [{"correct", "attempted", "failed", "metrics": {name: {"value",
    "unit"}}}]. A run with a non-finite metric value is not correct: the
    value prints as [null]. *)
