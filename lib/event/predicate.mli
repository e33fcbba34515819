(** Comparison operators φ ∈ {=, ≠, <, ≤, >, ≥} and atomic predicates.

    Besides evaluation, this module decides satisfiability of conjunctions
    of two atomic comparisons over the same attribute, which is what the
    paper's mutual-exclusivity notion (Definition 6) reduces to. *)

type op =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

val all_ops : op list

val eval : op -> Value.t -> Value.t -> bool
(** [eval op a b] is [a op b]. Values of incompatible types compare as
    unequal: [Eq] is [false], [Neq] is [true], and the order operators are
    all [false]. *)

val eval_order : op -> int -> bool
(** [eval_order op c] is whether a comparison result [c] (negative, zero
    or positive, as from [compare a b]) satisfies [a op b]. *)

val negate : op -> op
(** Logical complement: [negate Lt = Ge], etc. *)

val flip : op -> op
(** Operand swap: [a op b] iff [b (flip op) a]. *)

val conjunction_satisfiable : op * Value.t -> op * Value.t -> bool
(** [conjunction_satisfiable (op1, c1) (op2, c2)] decides whether some value
    [x] satisfies both [x op1 c1] and [x op2 c2]. The order is treated as
    dense, which makes the answer exact for floats and strings and
    conservative (never wrongly unsatisfiable) for integers. Predicates over
    incompatible constant types are each individually satisfiable by values
    of the matching type, hence the conjunction is satisfiable only if both
    admit values of one common type; with incompatible types the result is
    [false]. *)

(** Typed abstract domains for conjunctions of constant comparisons.

    [Domain.of_atoms ty atoms] conjoins any number of [(op, constant)]
    atoms over a field of type [ty] into an interval-with-exclusions
    abstract value — the n-ary, type-aware generalization of
    {!conjunction_satisfiable}. Knowing the type makes integer reasoning
    exact (x > 3 becomes x ≥ 4, and a fully-excluded finite integer range
    is detected as empty), keeps floats and strings dense, floors the
    string domain at [""], and treats constants of a type incompatible
    with the field like {!eval} does: [Neq] always holds, everything else
    never. Every operation is sound with respect to {!eval}: a domain is
    only [is_empty] when no value of the field's type satisfies all
    atoms. *)
module Domain : sig
  type nonrec op = op

  type t

  val top : Value.ty -> t
  (** All values of the type. *)

  val bottom : Value.ty -> t
  (** The empty domain. *)

  val narrow : t -> op * Value.t -> t
  (** Conjoin one atom. *)

  val of_atoms : Value.ty -> (op * Value.t) list -> t

  val inter : t -> t -> t
  (** Intersection (the types should agree). *)

  val is_empty : t -> bool
  (** No value of the field type satisfies the conjunction. *)

  val is_top : t -> bool

  val mem : t -> Value.t -> bool
  (** Whether a value of the field's type lies in the domain. *)

  val constant : t -> Value.t option
  (** The single point when the domain has collapsed to [v = c]. *)

  val implies : t -> op * Value.t -> bool
  (** [implies d atom]: every value in [d] satisfies [atom] — i.e. the
      atom is subsumed by the conjunction that built [d]. *)

  val propagate : Value.ty -> op -> t -> t
  (** [propagate ty op d] over-approximates [{x : ∃ y ∈ d. x op y}], the
      domain a field of type [ty] on the left of [op] is confined to when
      the right side ranges over [d] — the transfer function for
      inter-variable condition edges [v.A φ v'.A']. *)

  val pp : Format.formatter -> t -> unit

  val to_string : t -> string
end

val pp : Format.formatter -> op -> unit

val to_string : op -> string

val of_string : string -> op option
(** Recognizes [=], [<>], [!=], [<], [<=], [>], [>=]. *)
