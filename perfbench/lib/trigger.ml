let first_after ts ~from ~tau =
  (* Smallest i with ts.(i) > from + tau; ts is sorted. *)
  let n = Array.length ts in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ts.(mid) - from > tau then hi := mid else lo := mid + 1
  done;
  if !lo < n then Some !lo else None

let event_ids s =
  let n = String.length s in
  let rec scan i acc =
    if i + 2 >= n then List.rev acc
    else if s.[i] = '/' && s.[i + 1] = 'e' then begin
      let j = ref (i + 2) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      if !j > i + 2 then
        scan !j (int_of_string (String.sub s (i + 2) (!j - i - 2)) - 1 :: acc)
      else scan (i + 1) acc
    end
    else scan (i + 1) acc
  in
  scan 0 []

let segment_of starts i =
  (* Largest j with starts.(j) <= i. *)
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo
