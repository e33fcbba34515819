(** In-memory span recording around calls into the program's layers.

    A recorder keeps every finished span — name, start, end, the span
    that was open when it started (its parent) and the run id — in
    memory, and writes them out only when asked, so recording costs two
    clock reads and one allocation per call. Spans nest by call
    structure: {!with_span} inside another {!with_span} records the
    outer one as its parent.

    A layer's {e self time} is its span's duration minus the time its
    child spans cover: the work the layer did itself, not the work it
    delegated to layers timed below it. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  start_ns : int;
  end_ns : int;
  run_id : string;
}

type t

val create : ?clock:(unit -> int) -> run_id:string -> unit -> t
(** [clock] returns nanoseconds (default: from [Unix.gettimeofday]). *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Times the thunk as a span named [name]; exceptions still close it. *)

val spans : t -> span list
(** Finished spans in start order. *)

val write_tsv : out_channel -> span list -> unit
(** One span per line: [run_id id parent name start_ns end_ns], tab
    separated, parent [-] for a root. *)

type layer = {
  layer : string;
  calls : int;
  total_ns : int;  (** summed durations (nested calls of the same name count twice) *)
  self_ns : int;  (** summed self times *)
  max_ns : int;  (** longest single call *)
}

val self_ns : span list -> (int * int) list
(** Span id ↦ self time: duration minus the summed durations of its
    direct children (children never overlap — calls are sequential). *)

val layers : span list -> layer list
(** Per-name aggregate, sorted by name. *)

val durations : span list -> string -> float array
(** Durations in seconds of every span with this name, in start order. *)
