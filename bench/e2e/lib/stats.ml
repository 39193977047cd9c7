let rank ~n p =
  (* The epsilon keeps p * n = 99.000000000000014 (p = 0.99, n = 100) at
     rank 99. *)
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank ~n p - 1)

let sort xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sort xs) 0.5
let tail_levels = [ 0.9; 0.99; 0.999; 0.9999; 0.99999 ]

let tail_level n =
  List.fold_left
    (fun acc p -> if n - rank ~n p >= 10 then Some p else acc)
    None tail_levels

type summary = { n : int; p50 : float; tail : (float * float) option }

let summarize xs =
  let s = sort xs in
  let n = Array.length s in
  {
    n;
    p50 = percentile s 0.5;
    tail = Option.map (fun p -> (p, percentile s p)) (tail_level n);
  }

let within xs ~limit =
  let n = Array.length xs in
  if n = 0 then 0.0
  else
    float_of_int (Array.fold_left (fun c x -> if x <= limit then c + 1 else c) 0 xs)
    /. float_of_int n

type step = { rate : float; good : float; shed : int }

let required_share = 0.99
let passes s = s.good >= required_share && s.shed = 0

type knee = Inside | Below_ladder | Above_ladder

let max_rps steps =
  let steps = Array.of_list steps in
  let n = Array.length steps in
  if n = 0 then invalid_arg "Stats.max_rps: empty ladder";
  let highest = ref (-1) in
  Array.iteri (fun i s -> if passes s then highest := i) steps;
  if !highest < 0 then (steps.(0).rate, Below_ladder)
  else if !highest = n - 1 then (steps.(n - 1).rate, Above_ladder)
  else
    let a = steps.(!highest) and b = steps.(!highest + 1) in
    (* A step above that failed only by shedding has a share at or above
       the requirement; it still marks the knee, so clamp it there. *)
    let gb = Float.min b.good required_share in
    let f =
      if a.good -. gb <= 0.0 then 0.0
      else (a.good -. required_share) /. (a.good -. gb)
    in
    (exp (log a.rate +. (f *. (log b.rate -. log a.rate))), Inside)
