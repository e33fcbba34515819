type op =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

let all_ops = [ Eq; Neq; Lt; Le; Gt; Ge ]

let eval_order op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let eval op a b =
  let compatible = Value.ty_compatible (Value.type_of a) (Value.type_of b) in
  if not compatible then op = Neq else eval_order op (Value.compare a b)

let negate = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let flip = function
  | Eq -> Eq
  | Neq -> Neq
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(* Intervals over a dense totally ordered domain, used to decide
   satisfiability of conjunctions of atomic comparisons. A bound of [None]
   is infinite; [Some (v, incl)] is a finite bound that is inclusive iff
   [incl]. The string domain is bounded below by [""], which is the one
   non-dense corner that matters in practice (x < "" is unsatisfiable). *)
type bound = (Value.t * bool) option

let interval_of op c : bound * bound =
  match op with
  | Eq -> (Some (c, true), Some (c, true))
  | Lt -> (None, Some (c, false))
  | Le -> (None, Some (c, true))
  | Gt -> (Some (c, false), None)
  | Ge -> (Some (c, true), None)
  | Neq -> invalid_arg "interval_of: Neq is not an interval"

let tighten_lower a b =
  match a, b with
  | None, x | x, None -> x
  | Some (va, ia), Some (vb, ib) ->
      let c = Value.compare va vb in
      if c > 0 then a
      else if c < 0 then b
      else Some (va, ia && ib)

let tighten_upper a b =
  match a, b with
  | None, x | x, None -> x
  | Some (va, ia), Some (vb, ib) ->
      let c = Value.compare va vb in
      if c < 0 then a
      else if c > 0 then b
      else Some (va, ia && ib)

let nonempty ~strings (lo, hi) =
  let lo = if strings && lo = None then Some (Value.Str "", true) else lo in
  match lo, hi with
  | None, _ | _, None -> true
  | Some (vl, il), Some (vh, ih) ->
      let c = Value.compare vl vh in
      c < 0 || (c = 0 && il && ih)

let satisfiable_alone (op, c) =
  match op with
  | Neq -> true
  | Eq | Lt | Le | Gt | Ge ->
      let strings = Value.type_of c = Value.Tstr in
      nonempty ~strings (interval_of op c)

let conjunction_satisfiable (op1, c1) (op2, c2) =
  let t1 = Value.type_of c1 and t2 = Value.type_of c2 in
  if not (Value.ty_compatible t1 t2) then
    (* A witness must live in one constant's domain; against the other
       constant only Neq can hold. *)
    (op1 = Neq && satisfiable_alone (op2, c2))
    || (op2 = Neq && satisfiable_alone (op1, c1))
  else
    let strings = t1 = Value.Tstr in
    match op1, op2 with
    | Neq, Neq -> true
    | Neq, _ ->
        satisfiable_alone (op2, c2) && not (op2 = Eq && Value.equal c1 c2)
    | _, Neq ->
        satisfiable_alone (op1, c1) && not (op1 = Eq && Value.equal c1 c2)
    | (Eq | Lt | Le | Gt | Ge), (Eq | Lt | Le | Gt | Ge) ->
        let lo1, hi1 = interval_of op1 c1 and lo2, hi2 = interval_of op2 c2 in
        nonempty ~strings (tighten_lower lo1 lo2, tighten_upper hi1 hi2)

(* A typed n-ary generalization of the pairwise test: an abstract value
   for "all runtime values a field could take under a conjunction of
   constant comparisons". The representation is the interval [lo, hi]
   minus the finitely many [Neq] exclusions that fall inside it. Knowing
   the field type makes integer reasoning exact (Gt 3 tightens to Ge 4),
   which the typeless pairwise test must not do — an int constant can
   lawfully be compared against a float-typed field, whose domain is
   dense. *)
module Domain = struct
  type nonrec op = op

  type t = {
    ty : Value.ty;
    lo : bound;
    hi : bound;
    excl : Value.t list;
    empty : bool;
  }

  let compatible ty v = Value.ty_compatible (Value.type_of v) ty

  (* Integer fields only take integral values: exclusive [Int] bounds
     tighten to the adjacent inclusive one. Bounds of other numeric types
     against an int field stay dense (conservative). *)
  let norm_lower ty = function
    | Some (Value.Int n, false) when ty = Value.Tint && n < max_int ->
        Some (Value.Int (n + 1), true)
    | b -> b

  let norm_upper ty = function
    | Some (Value.Int n, false) when ty = Value.Tint && n > min_int ->
        Some (Value.Int (n - 1), true)
    | b -> b

  let within (lo, hi) v =
    (match lo with
    | None -> true
    | Some (l, il) ->
        let c = Value.compare v l in
        c > 0 || (c = 0 && il))
    && match hi with
       | None -> true
       | Some (h, ih) ->
           let c = Value.compare v h in
           c < 0 || (c = 0 && ih)

  (* Re-establish the invariants after any bound/exclusion change: string
     domains are floored at [""], int bounds are integral, exclusions
     outside the bounds are dropped, and [empty] is decided — including
     the exact finite-integer-range check that pure interval reasoning
     misses (x ≥ 1 ∧ x ≤ 2 ∧ x ≠ 1 ∧ x ≠ 2). *)
  let decide d =
    if d.empty then d
    else begin
      let lo = norm_lower d.ty d.lo and hi = norm_upper d.ty d.hi in
      let lo =
        if d.ty = Value.Tstr && lo = None then Some (Value.Str "", true)
        else lo
      in
      let excl =
        List.filter (fun v -> compatible d.ty v && within (lo, hi) v) d.excl
      in
      let d = { d with lo; hi; excl } in
      if not (nonempty ~strings:false (lo, hi)) then { d with empty = true }
      else
        let excluded v = List.exists (Value.equal v) excl in
        match lo, hi with
        | Some (l, true), Some (h, true) when Value.equal l h ->
            if excluded l then { d with empty = true } else d
        | Some (Value.Int a, true), Some (Value.Int b, true)
          when d.ty = Value.Tint && b - a <= 64 ->
            let rec all_excluded k =
              k > b || (excluded (Value.Int k) && all_excluded (k + 1))
            in
            if excl <> [] && all_excluded a then { d with empty = true } else d
        | _ -> d
    end

  let top ty = { ty; lo = None; hi = None; excl = []; empty = false }

  let bottom ty = { (top ty) with empty = true }

  let is_empty d = d.empty

  let is_top d =
    (not d.empty) && d.lo = None && d.hi = None && d.excl = []

  let narrow d (op, c) =
    if d.empty then d
    else if not (compatible d.ty c) then
      (* Every value of the field's type compares [Neq] to [c]; the order
         operators and [Eq] never hold (cf. {!eval}). *)
      if op = Neq then d else bottom d.ty
    else
      match op with
      | Neq -> decide { d with excl = c :: d.excl }
      | Eq | Lt | Le | Gt | Ge ->
          let lo, hi = interval_of op c in
          decide
            {
              d with
              lo = tighten_lower d.lo (norm_lower d.ty lo);
              hi = tighten_upper d.hi (norm_upper d.ty hi);
            }

  let of_atoms ty atoms = List.fold_left narrow (top ty) atoms

  let inter a b =
    if a.empty || b.empty then bottom a.ty
    else
      decide
        {
          a with
          lo = tighten_lower a.lo b.lo;
          hi = tighten_upper a.hi b.hi;
          excl = a.excl @ b.excl;
        }

  let mem d v =
    (not d.empty)
    && compatible d.ty v
    && within (d.lo, d.hi) v
    && not (List.exists (Value.equal v) d.excl)

  let constant d =
    if d.empty then None
    else
      match d.lo, d.hi with
      | Some (l, true), Some (h, true) when Value.equal l h -> Some l
      | _ -> None

  (* Containment of [d]'s bounds in the region of one atom; exclusions
     are ignored on the left (sound: a subset of an implying set still
     implies). *)
  let implies d (op, c) =
    d.empty
    ||
    if not (compatible d.ty c) then op = Neq
    else
      match op with
      | Neq -> not (mem d c)
      | Eq | Lt | Le | Gt | Ge ->
          let lo_r, hi_r = interval_of op c in
          let lo_r = norm_lower d.ty lo_r and hi_r = norm_upper d.ty hi_r in
          let lower_contained =
            match lo_r, d.lo with
            | None, _ -> true
            | Some _, None -> false
            | Some (vr, ir), Some (v, i) ->
                let cmp = Value.compare v vr in
                cmp > 0 || (cmp = 0 && (ir || not i))
          in
          let upper_contained =
            match hi_r, d.hi with
            | None, _ -> true
            | Some _, None -> false
            | Some (vr, ir), Some (v, i) ->
                let cmp = Value.compare v vr in
                cmp < 0 || (cmp = 0 && (ir || not i))
          in
          lower_contained && upper_contained

  (* [propagate ty op d] over-approximates {x : ∃ y ∈ d. x op y} — the
     values a field of type [ty] can take on the left of [op] when the
     right side ranges over [d]. *)
  let propagate ty op d =
    if d.empty then bottom ty
    else if not (Value.ty_compatible d.ty ty) then
      if op = Neq then top ty else bottom ty
    else
      match op with
      | Eq -> decide { d with ty; empty = false }
      | Neq -> (
          (* Unless d is a single point, any x finds some y ≠ x. *)
          match constant d with
          | Some c when d.excl = [] -> decide { (top ty) with excl = [ c ] }
          | Some _ | None -> top ty)
      | Lt ->
          let hi =
            match d.hi with Some (v, _) -> Some (v, false) | None -> None
          in
          decide { (top ty) with hi }
      | Le -> decide { (top ty) with hi = d.hi }
      | Gt ->
          let lo =
            match d.lo with Some (v, _) -> Some (v, false) | None -> None
          in
          decide { (top ty) with lo }
      | Ge -> decide { (top ty) with lo = d.lo }

  let pp ppf d =
    if d.empty then Format.pp_print_string ppf "(empty)"
    else begin
      (match constant d with
      | Some c -> Format.fprintf ppf "= %a" Value.pp c
      | None -> (
          (match d.lo, d.hi with
          | None, None -> Format.pp_print_string ppf "unconstrained"
          | _ ->
              (match d.lo with
              | None -> Format.pp_print_string ppf "(-inf"
              | Some (v, i) ->
                  Format.fprintf ppf "%c%a" (if i then '[' else '(') Value.pp v);
              Format.pp_print_string ppf ", ";
              match d.hi with
              | None -> Format.pp_print_string ppf "+inf)"
              | Some (v, i) ->
                  Format.fprintf ppf "%a%c" Value.pp v (if i then ']' else ')'))));
      match d.excl with
      | [] -> ()
      | vs ->
          Format.fprintf ppf " except {%a}"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
               Value.pp)
            (List.sort_uniq Value.compare vs)
    end

  let to_string d = Format.asprintf "%a" pp d
end

let to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp ppf op = Format.pp_print_string ppf (to_string op)

let of_string = function
  | "=" | "==" -> Some Eq
  | "<>" | "!=" -> Some Neq
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | _ -> None
