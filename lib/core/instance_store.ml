open Ses_event

(* Buckets hold their instances as a list sorted ascending by
   (ts_of, seq_of); [n] caches the length. Pending inserts accumulate
   newest-first on the bucket itself; [dirty] lists the buckets with a
   non-empty pending list so [commit] visits exactly those — staging
   through an interned handle therefore costs no hashtable probe at
   all. [total] counts committed instances only. *)

type 'a bucket = {
  mutable items : 'a list;
  mutable n : int;
  mutable pending : 'a list;  (* staged inserts, newest first *)
}

type 'a t = {
  ts_of : 'a -> Time.t;
  seq_of : 'a -> int;
  buckets : (Varset.t, 'a bucket) Hashtbl.t;
  mutable dirty : 'a bucket list;  (* buckets with pending inserts *)
  mutable total : int;
}

let create ~ts_of ~seq_of () =
  {
    ts_of;
    seq_of;
    buckets = Hashtbl.create 32;
    dirty = [];
    total = 0;
  }

let size st = st.total

let bucket st q = Hashtbl.find_opt st.buckets q

let bucket_size st q =
  match bucket st q with None -> 0 | Some b -> b.n

(* A handle interns the bucket record itself: resolving one per automaton
   state at stream creation removes every per-event hashtable probe from
   the engine's hot loop. Handles stay valid for the lifetime of the
   store — [clear] empties buckets in place instead of dropping them. *)
type 'a handle = { owner : 'a t; hb : 'a bucket }

let fresh_bucket () = { items = []; n = 0; pending = [] }

let handle st q =
  match Hashtbl.find_opt st.buckets q with
  | Some b -> { owner = st; hb = b }
  | None ->
      let b = fresh_bucket () in
      Hashtbl.replace st.buckets q b;
      { owner = st; hb = b }

let handle_size h = h.hb.n

(* Bucket order: ascending (ts_of, seq_of), compared without building
   tuples — this comparison runs once per instance per merge. *)
let before st a b =
  let ta = st.ts_of a and tb = st.ts_of b in
  let c = Time.compare ta tb in
  if c <> 0 then c < 0 else st.seq_of a <= st.seq_of b

let pop_expired_bucket st b ~expired =
  let rec split acc = function
    | x :: rest when expired x -> split (x :: acc) rest
    | rest -> (acc, rest)
  in
  let dead_rev, alive = split [] b.items in
  match dead_rev with
  | [] -> []
  | _ ->
      let k = List.length dead_rev in
      b.items <- alive;
      b.n <- b.n - k;
      st.total <- st.total - k;
      List.rev dead_rev

let pop_expired st q ~expired =
  match bucket st q with
  | None -> []
  | Some b -> pop_expired_bucket st b ~expired

let pop_expired_h h ~expired = pop_expired_bucket h.owner h.hb ~expired

let take_all_bucket st b =
  let items = b.items in
  st.total <- st.total - b.n;
  b.items <- [];
  b.n <- 0;
  items

let take_all st q =
  match bucket st q with None -> [] | Some b -> take_all_bucket st b

let take_all_h h = take_all_bucket h.owner h.hb

let items_h h = h.hb.items

let put_back_bucket st b items =
  match items with
  | [] -> ()
  | _ ->
      if b.n <> 0 then invalid_arg "Instance_store.put_back: bucket not empty";
      let k = List.length items in
      b.items <- items;
      b.n <- k;
      st.total <- st.total + k

let put_back st q items =
  match items with
  | [] -> ()
  | _ ->
      let b =
        match bucket st q with
        | Some b -> b
        | None ->
            let b = fresh_bucket () in
            Hashtbl.replace st.buckets q b;
            b
      in
      put_back_bucket st b items

let put_back_h h items = put_back_bucket h.owner h.hb items

let stage_bucket st b a =
  (match b.pending with [] -> st.dirty <- b :: st.dirty | _ :: _ -> ());
  b.pending <- a :: b.pending

let stage_h h a = stage_bucket h.owner h.hb a

let stage st q a = stage_bucket st (handle st q).hb a

let merge st xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], l | l, [] -> List.rev_append acc l
    | x :: xs', y :: ys' ->
        if before st x y then go (x :: acc) xs' ys else go (y :: acc) xs ys'
  in
  go [] xs ys

let commit st =
  match st.dirty with
  | [] -> ()
  | dirty ->
      st.dirty <- [];
      List.iter
        (fun b ->
          let incoming =
            List.sort
              (fun a b -> if before st a b then -1 else 1)
              b.pending
          in
          let k = List.length incoming in
          b.pending <- [];
          b.items <- merge st b.items incoming;
          b.n <- b.n + k;
          st.total <- st.total + k)
        dirty

let fold_buckets f st init =
  let states =
    Hashtbl.fold
      (fun q b acc -> if b.n > 0 then q :: acc else acc)
      st.buckets []
  in
  List.fold_left
    (fun acc q -> f q (Option.get (bucket st q)).items acc)
    init
    (List.sort Varset.compare states)

let to_list st =
  List.rev (fold_buckets (fun _ items acc -> List.rev_append items acc) st [])

let clear st =
  (* Empty in place: interned bucket handles must survive a clear. *)
  Hashtbl.iter
    (fun _ b ->
      b.items <- [];
      b.n <- 0;
      b.pending <- [])
    st.buckets;
  st.dirty <- [];
  st.total <- 0
