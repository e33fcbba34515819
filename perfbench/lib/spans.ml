type span = {
  id : int;
  name : string;
  parent : int option;
  start_ns : int;
  end_ns : int;
  run_id : string;
}

type t = {
  clock : unit -> int;
  run_id : string;
  mutable next_id : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable finished : span list;  (* newest first *)
}

let default_clock () = int_of_float (Unix.gettimeofday () *. 1e9)

let create ?(clock = default_clock) ~run_id () =
  { clock; run_id; next_id = 0; stack = []; finished = [] }

let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let start_ns = t.clock () in
  let finish () =
    let end_ns = t.clock () in
    t.stack <- List.tl t.stack;
    t.finished <- { id; name; parent; start_ns; end_ns; run_id = t.run_id } :: t.finished
  in
  Fun.protect ~finally:finish f

let spans t =
  List.sort (fun (a : span) (b : span) -> Int.compare a.id b.id) t.finished

let write_tsv oc spans =
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc "%s\t%d\t%s\t%s\t%d\t%d\n" s.run_id s.id
        (match s.parent with Some p -> string_of_int p | None -> "-")
        s.name s.start_ns s.end_ns)
    spans

type layer = {
  layer : string;
  calls : int;
  total_ns : int;
  self_ns : int;
  max_ns : int;
}

let duration (s : span) = max 0 (s.end_ns - s.start_ns)

let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      match s.parent with
      | Some p ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt children p) in
          Hashtbl.replace children p (prev + duration s)
      | None -> ())
    spans;
  List.map
    (fun (s : span) ->
      let covered = Option.value ~default:0 (Hashtbl.find_opt children s.id) in
      (s.id, max 0 (duration s - covered)))
    spans

let layers spans =
  let selfs = Hashtbl.create 64 in
  List.iter (fun (id, ns) -> Hashtbl.replace selfs id ns) (self_ns spans);
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let d = duration s and own = Hashtbl.find selfs s.id in
      let l =
        match Hashtbl.find_opt acc s.name with
        | Some l -> l
        | None -> { layer = s.name; calls = 0; total_ns = 0; self_ns = 0; max_ns = 0 }
      in
      Hashtbl.replace acc s.name
        {
          l with
          calls = l.calls + 1;
          total_ns = l.total_ns + d;
          self_ns = l.self_ns + own;
          max_ns = max l.max_ns d;
        })
    spans;
  List.sort
    (fun a b -> String.compare a.layer b.layer)
    (Hashtbl.fold (fun _ l acc -> l :: acc) acc [])

let durations spans name =
  Array.of_list
    (List.filter_map
       (fun (s : span) ->
         if String.equal s.name name then Some (float_of_int (duration s) /. 1e9)
         else None)
       spans)
