(** The subset of JSON the benchmark ledger reads and writes.

    Integers and floats are kept apart so that counts round-trip as
    integers; floats print with 17 significant digits, so a parsed value
    equals the printed one. Non-finite floats have no JSON form:
    {!to_string} raises [Invalid_argument] on them, and callers that can
    meet an infinite bound write it as a string instead. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact, one line, keys in the given order. *)

val of_string : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed). Numbers
    without a fraction or exponent that fit an [int] become [Int]. *)

val member : string -> t -> t option
(** [member k (Assoc kvs)] is the value bound to [k]; [None] otherwise. *)

val to_float : t -> float option
(** [Int] and [Float] as a float. *)
