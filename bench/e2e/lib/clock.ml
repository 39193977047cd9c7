(* Every timing in the benchmark reads this one monotonic nanosecond clock. *)

let now_ns () = Monotonic_clock.now ()
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)
let seconds_since t0 = ns_between t0 (now_ns ()) *. 1e-9

(* [time f] — [f ()] and its wall time in seconds. *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)
