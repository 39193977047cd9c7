(* Mechanical tail proposals, dispatched on the target's sampling kernel.

   Each arm keeps the same parametric family as the target and moves only
   a location (or rate) parameter toward the threshold.  Staying in the
   family matters twice over: the batched [Dist.sample_into_col] kernels
   keep working (no Generic fallback on the hot path), and the log-weight
   is a smooth closed form whose maximum on the event sits at the
   threshold itself, so weights cannot degenerate however deep the
   tail. *)

let tail ~target ~y =
  match target.Dist.kernel with
  | Dist.Lognormal_k { mu; sigma } ->
    if y <= 0.0 then None
    else
      (* Raising mu to ln y puts the median of the proposal at the
         threshold, so about half the draws land on the event.  The scale
         is inflated by sqrt 2 as well: with the same sigma the weight
         would be bounded on the event but explode below it (draws there
         contribute nothing to a tail estimate yet would dominate Sum w^2
         and wreck the ESS); with sigma' = sqrt 2 sigma the log-weight is
         a downward parabola in ln x, giving the global bound
         w <= sqrt 2 exp((mu - mu')^2 / 2 sigma^2) over the whole
         support. *)
      let mu' = Float.max mu (log y) in
      if mu' = mu then None
      else Some (Dist.Lognormal.make ~mu:mu' ~sigma:(sqrt 2.0 *. sigma))
  | Dist.Normal_k { mu; sigma } ->
    (* Same mean-shift-plus-scale-inflation construction in plain space. *)
    let mu' = Float.max mu y in
    if mu' = mu then None
    else Some (Dist.Normal.make ~mu:mu' ~sigma:(sqrt 2.0 *. sigma))
  | Dist.Exponential_k { rate } ->
    if y <= 0.0 then None
    else
      (* Exponential tilt within the family: flattening the rate to 1/y
         moves the proposal mean onto the threshold; the weight
         (rate/rate') exp(-(rate - rate') x) decreases on the event. *)
      let rate' = Float.min rate (1.0 /. y) in
      if rate' = rate then None
      else Some (Dist.Exponential_d.make ~rate:rate')
  | Dist.Uniform_k { lo; hi } ->
    let lo' = Float.max lo y in
    if lo' >= hi then None else Some (Dist.Uniform_d.make ~lo:lo' ~hi)
  | Dist.Generic -> None
