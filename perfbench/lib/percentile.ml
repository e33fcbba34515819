type t = { p : float; value : float; samples : int; supported : bool }

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Ten samples beyond the percentile; the epsilon keeps 0.99 * 1000
   from rounding below 10. *)
let supported ~n p = float_of_int n *. (1. -. p) >= 10. -. 1e-9

let min_samples p = int_of_float (Float.ceil ((10. /. (1. -. p)) -. 1e-9))

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let of_samples xs p =
  let n = Array.length xs in
  { p; value = nearest_rank (sorted_copy xs) p; samples = n; supported = supported ~n p }

let median xs = nearest_rank (sorted_copy xs) 0.5
