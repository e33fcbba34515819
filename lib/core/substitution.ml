open Ses_event
open Ses_pattern

type binding = int * Event.t

type t = binding list

(* Pairs of ints ordered lexicographically — the comparator for both
   canonical (variable, seq) entries and (timestamp, seq) keys. *)
let compare_int_pair (a, b) (a', b') =
  let c = Int.compare a a' in
  if c <> 0 then c else Int.compare b b'

let compare_canonical = List.compare compare_int_pair

let canonical subst =
  List.sort_uniq compare_int_pair
    (List.map (fun (v, e) -> (v, Event.seq e)) subst)

let equal a b = canonical a = canonical b

(* Set inclusion over two canonical forms (sorted, duplicate-free):
   a single merge pass instead of a List.mem per element. *)
let rec subset_canon a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: a', y :: b' ->
      let c = compare_int_pair x y in
      if c = 0 then subset_canon a' b'
      else if c > 0 then subset_canon a b'
      else false

let subset a b = subset_canon (canonical a) (canonical b)

let proper_subset a b =
  let ca = canonical a and cb = canonical b in
  List.length ca < List.length cb && subset_canon ca cb

let bindings_of subst v =
  List.filter_map (fun (v', e) -> if v' = v then Some e else None) subst

let events subst = List.map snd subst

let min_binding subst =
  let earlier (_, e) (_, e') = Event.compare_chrono e e' < 0 in
  match subst with
  | [] -> None
  | b :: rest ->
      Some (List.fold_left (fun best b' -> if earlier b' best then b' else best) b rest)

let min_ts subst = Option.map (fun (_, e) -> Event.ts e) (min_binding subst)

let span subst =
  match subst with
  | [] -> 0
  | (_, e0) :: _ ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (_, e) ->
            (Time.min lo (Event.ts e), Time.max hi (Event.ts e)))
          (Event.ts e0, Event.ts e0) subst
      in
      Time.span lo hi

let well_formed p subst =
  let seqs = List.map (fun (_, e) -> Event.seq e) subst in
  List.length (List.sort_uniq Int.compare seqs) = List.length seqs
  && List.for_all
       (fun v ->
         let n = List.length (bindings_of subst v) in
         n >= Pattern.min_count p v
         &&
         match Pattern.max_count p v with
         | Some m -> n <= m
         | None -> true)
       (List.init (Pattern.n_vars p) Fun.id)

let satisfies_theta p subst =
  let bindings = bindings_of subst in
  List.for_all (fun c -> Condition.holds c bindings) (Pattern.conditions p)

let satisfies_order p subst =
  List.for_all
    (fun (v, e) ->
      List.for_all
        (fun (v', e') ->
          if Pattern.set_of_var p v < Pattern.set_of_var p v' then
            Time.( <. ) (Event.ts e) (Event.ts e')
          else true)
        subst)
    subst

let satisfies_window p subst = span subst <= Pattern.tau p

let satisfies_negations p events subst =
  let start_ts = Option.value ~default:0 (min_ts subst) in
  let n = Array.length events in
  (* The array is chronologically ordered, so sequence numbers ascend
     with the index: binary search for the first position past a given
     sequence number. *)
  let first_seq_above target =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Event.seq events.(mid) <= target then go (mid + 1) hi
        else go lo mid
    in
    go 0 n
  in
  List.for_all
    (fun (boundary, nv) ->
      let before, after =
        List.partition
          (fun (v, _) -> Pattern.set_of_var p v <= boundary)
          subst
      in
      let last_before =
        List.fold_left (fun acc (_, e) -> max acc (Event.seq e)) min_int before
      in
      (* A trailing guard (after the last set) stays armed until the match
         window closes; the engine's expiry check runs before the guard,
         so an event outside τ can no longer kill. *)
      let first_after =
        List.fold_left (fun acc (_, e) -> min acc (Event.seq e)) max_int after
      in
      let conds = Pattern.conditions_on p nv in
      (* Only events strictly inside the (last_before, first_after)
         sequence window can violate the guard; scan just that slice of
         the array instead of the whole relation. *)
      let lo = if last_before = min_int then 0 else first_seq_above last_before in
      let rec ok i =
        i >= n
        ||
        let e = events.(i) in
        let seq = Event.seq e in
        seq >= first_after
        || ((seq <= last_before
            || Time.span (Event.ts e) start_ts > Pattern.tau p
            || not
                 (List.for_all
                    (fun c ->
                      Condition.holds_binding c ~var:nv ~event:e subst)
                    conds))
           && ok (i + 1))
      in
      ok lo)
    (Pattern.negations p)

let satisfies_1_3 p subst =
  well_formed p subst && satisfies_theta p subst && satisfies_order p subst
  && satisfies_window p subst

let same_min_binding a b =
  match min_binding a, min_binding b with
  | Some (v, e), Some (v', e') -> v = v' && Event.equal e e'
  | None, None -> true
  | None, Some _ | Some _, None -> false

let maximal_within ~candidates subst =
  not
    (List.exists
       (fun cand -> same_min_binding subst cand && proper_subset subst cand)
       candidates)

(* Shared by [skip_till_next_within] and the finalize pipeline: for each
   variable, the chronologically sorted timestamps (with sequence
   numbers) of every event the candidate set binds to it. Built once per
   candidate set, then each γ pair-check is a binary search over the
   variable's array instead of a rescan of every candidate. *)
let bindings_by_var candidates =
  let table = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (v, e) ->
         let l = Option.value ~default:[] (Hashtbl.find_opt table v) in
         Hashtbl.replace table v ((Event.ts e, Event.seq e) :: l)))
    candidates;
  let sorted = Hashtbl.create 16 in
  Hashtbl.iter
    (fun v l ->
      let arr = Array.of_list l in
      Array.sort compare_int_pair arr;
      Hashtbl.replace sorted v arr)
    table;
  sorted

(* A pair v/e, v'/e' of γ is violated when some candidate binds v' to an
   event strictly between e and e' that γ itself does not use. [by_var]
   indexes the candidate bindings; [in_subst] answers (v, seq) ∈ γ. *)
let skip_till_pairs_ok ~by_var ~in_subst subst =
  let pair_ok (_, e) (v', e') =
    match Hashtbl.find_opt by_var v' with
    | None -> true
    | Some arr ->
        let t_lo = Event.ts e and t_hi = Event.ts e' in
        (* First entry with timestamp > t_lo. *)
        let n = Array.length arr in
        let rec lower lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if fst arr.(mid) <= t_lo then lower (mid + 1) hi else lower lo mid
        in
        let rec scan i =
          i >= n
          ||
          let ts, seq = arr.(i) in
          (not (Time.( <. ) ts t_hi)) || (in_subst v' seq && scan (i + 1))
        in
        scan (lower 0 n)
  in
  List.for_all (fun b -> List.for_all (fun b' -> pair_ok b b') subst) subst

let skip_till_next_within ~candidates subst =
  let cs = canonical subst in
  let in_subst v seq = List.mem (v, seq) cs in
  skip_till_pairs_ok ~by_var:(bindings_by_var candidates) ~in_subst subst

type policy =
  | Operational
  | Literal

(* Finalization works on an annotated view of each candidate — the
   canonical form, its size and the minT binding are computed once per
   substitution instead of once per comparison. *)
type annotated = {
  subst : t;
  canon : (int * int) list;  (** sorted, duplicate-free *)
  canon_size : int;
  min_key : (int * int) option;  (** (var, seq) of the minT binding *)
  min_t : Time.t option;
}

let annotate s =
  let canon = canonical s in
  {
    subst = s;
    canon;
    canon_size = List.length canon;
    min_key =
      Option.map (fun (v, e) -> (v, Event.seq e)) (min_binding s);
    min_t = min_ts s;
  }

let dedup_annotated substs =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun s ->
      let a = annotate s in
      if Hashtbl.mem seen a.canon then None
      else begin
        Hashtbl.add seen a.canon ();
        Some a
      end)
    substs

(* Candidates indexed by every (var, seq) binding they contain. Any
   strict superset of γ contains each of γ's bindings, so the posting
   list of γ's rarest binding is a complete set of subsumption suspects —
   in practice a tiny fraction of the candidate set. *)
let posting_index annotated =
  let index = Hashtbl.create 256 in
  List.iter
    (fun a ->
      List.iter
        (fun key ->
          let l = Option.value ~default:[] (Hashtbl.find_opt index key) in
          Hashtbl.replace index key (a :: l))
        a.canon)
    annotated;
  index

let rarest_posting index a =
  let shorter l l' =
    match (l, l') with
    | None, x | x, None -> x
    | Some l, Some l' ->
        Some (if List.length l <= List.length l' then l else l')
  in
  List.fold_left
    (fun best key -> shorter best (Hashtbl.find_opt index key))
    None a.canon

let subsumed candidates index a =
  if a.canon_size = 0 then
    (* The empty substitution is a strict subset of any non-empty one. *)
    List.exists (fun b -> b.canon_size > 0) candidates
  else
    match rarest_posting index a with
    | None -> false
    | Some suspects ->
        List.exists
          (fun b -> b.canon_size > a.canon_size && subset_canon a.canon b.canon)
          suspects

let finalize ?(policy = Operational) p substs =
  ignore p;
  let candidates = dedup_annotated substs in
  let survivors =
    match policy with
    | Operational ->
        let index = posting_index candidates in
        List.filter (fun a -> not (subsumed candidates index a)) candidates
    | Literal ->
        (* Condition 5 compares only substitutions sharing a minT
           binding: group by it and look for strict supersets inside the
           group. Condition 4's pair check runs against the per-variable
           binding index. *)
        let groups = Hashtbl.create 64 in
        List.iter
          (fun a ->
            let l =
              Option.value ~default:[] (Hashtbl.find_opt groups a.min_key)
            in
            Hashtbl.replace groups a.min_key (a :: l))
          candidates;
        let maximal a =
          List.for_all
            (fun b ->
              b.canon_size <= a.canon_size
              || not (subset_canon a.canon b.canon))
            (Option.value ~default:[] (Hashtbl.find_opt groups a.min_key))
        in
        let by_var = bindings_by_var (List.map (fun a -> a.subst) candidates) in
        let skip_ok a =
          let members = Hashtbl.create 16 in
          List.iter (fun key -> Hashtbl.replace members key ()) a.canon;
          skip_till_pairs_ok ~by_var
            ~in_subst:(fun v seq -> Hashtbl.mem members (v, seq))
            a.subst
        in
        List.filter (fun a -> maximal a && skip_ok a) candidates
  in
  List.map
    (fun a -> a.subst)
    (List.sort
       (fun a b ->
         let c = Option.compare Time.compare a.min_t b.min_t in
         if c <> 0 then c else compare_canonical a.canon b.canon)
       survivors)

let pp p ppf subst =
  let items =
    List.map (fun (v, e) -> Pattern.var_name p v ^ "/" ^ Event.name e) subst
  in
  Format.fprintf ppf "{%s}" (String.concat ", " items)
