open Ses_event

type operand =
  | Const of Value.t
  | Var of int * Schema.Field.t

type t = {
  var : int;
  field : Schema.Field.t;
  op : Predicate.op;
  rhs : operand;
  span : Span.t option;
}

let make_const ?span ~var ~field op c = { var; field; op; rhs = Const c; span }

let make_var ?span ~var ~field op ~var' ~field' =
  { var; field; op; rhs = Var (var', field'); span }

let span c = c.span

let is_constant c = match c.rhs with Const _ -> true | Var _ -> false

let vars c =
  match c.rhs with
  | Const _ -> [ c.var ]
  | Var (v', _) -> if v' = c.var then [ c.var ] else [ c.var; v' ]

let mentions c v = List.mem v (vars c)

let other_var c v =
  match c.rhs with
  | Const _ -> None
  | Var (v', _) ->
      if v = c.var && v' <> v then Some v'
      else if v = v' && c.var <> v then Some c.var
      else None

let typecheck schema c =
  let lty = Schema.Field.type_of schema c.field in
  let rty =
    match c.rhs with
    | Const v -> Value.type_of v
    | Var (_, f) -> Schema.Field.type_of schema f
  in
  if Value.ty_compatible lty rty then Ok ()
  else
    Error
      (Format.asprintf "condition compares incompatible types %a and %a"
         Value.pp_ty lty Value.pp_ty rty)

let eval_pair c left right = Predicate.eval c.op left right

(* φ between field [c.field] of [l] and field [f'] of [r]. Two
   timestamps compare unboxed: [Event.get] would box each into a fresh
   [Value.Int], and the automaton's time constraints compare timestamps
   against every binding of a group. *)
let eval_events c l r f' =
  match c.field, f' with
  | Schema.Field.Timestamp, Schema.Field.Timestamp ->
      Predicate.eval_order c.op (Time.compare (Event.ts l) (Event.ts r))
  | (Schema.Field.Timestamp | Schema.Field.Attr _), _ ->
      eval_pair c (Event.get l c.field) (Event.get r f')

let holds c bindings =
  List.for_all
    (fun l ->
      match c.rhs with
      | Const k -> eval_pair c (Event.get l c.field) k
      | Var (v', f') when v' = c.var -> eval_events c l l f'
      | Var (v', f') ->
          List.for_all (fun r -> eval_events c l r f') (bindings v'))
    (bindings c.var)

(* The incremental evaluator walks the instance's (variable, event)
   buffer in place: it builds no per-variable lists and allocates no
   closure per binding, so its allocation does not grow with the
   buffer. *)

(* φ between [l] and every event [buffer] binds to [v]. *)
let rec all_right c l f' v buffer =
  match buffer with
  | [] -> true
  | (v', r) :: rest ->
      (v' <> v || eval_events c l r f') && all_right c l f' v rest

(* The instantiations whose left-hand side is bound to [l]: the right
   side is a constant, [l] itself (reflexive), the new [event] when the
   right variable is the one being bound, or the buffer's bindings. *)
let holds_at c ~var ~event buffer l =
  match c.rhs with
  | Const k -> eval_pair c (Event.get l c.field) k
  | Var (v', f') when v' = c.var -> eval_events c l l f'
  | Var (v', f') when v' = var -> eval_events c l event f'
  | Var (v', f') -> all_right c l f' v' buffer

let rec all_left c ~var ~event buffer rest =
  match rest with
  | [] -> true
  | (v', l) :: rest ->
      (v' <> c.var || holds_at c ~var ~event buffer l)
      && all_left c ~var ~event buffer rest

let holds_binding c ~var ~event buffer =
  if c.var = var then holds_at c ~var ~event buffer event
  else all_left c ~var ~event buffer buffer

let pp schema ~name_of ppf c =
  let pp_field ppf (v, f) =
    Format.fprintf ppf "%s.%s" (name_of v) (Schema.Field.name schema f)
  in
  Format.fprintf ppf "%a %a " pp_field (c.var, c.field) Predicate.pp c.op;
  match c.rhs with
  | Const v -> Value.pp ppf v
  | Var (v', f') -> pp_field ppf (v', f')
