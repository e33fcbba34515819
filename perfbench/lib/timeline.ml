let best = function
  | [] -> None
  | d :: rest ->
      if List.for_all (fun r -> Array.length r = Array.length d) rest then
        Some (List.fold_left (Array.map2 Float.min) (Array.copy d) rest)
      else None

let total = Array.fold_left ( +. ) 0.

let latencies best spans =
  (* starts.(i): when call i begins; starts.(n): when the last ends. *)
  let starts = Array.make (Array.length best + 1) 0. in
  Array.iteri (fun i d -> starts.(i + 1) <- starts.(i) +. d) best;
  Array.map
    (fun (from, upto) ->
      if from > upto then invalid_arg "Timeline.latencies: match before its trigger";
      starts.(upto + 1) -. starts.(from))
    spans
