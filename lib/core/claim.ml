type t = { bound : float; confidence : float }

let make ~bound ~confidence =
  if bound < 0.0 || bound > 1.0 then
    invalid_arg "Claim.make: bound must be a probability (a pfd)";
  if not (confidence > 0.0 && confidence <= 1.0) then
    invalid_arg "Claim.make: confidence must be in (0,1]";
  { bound; confidence }

let doubt t = 1.0 -. t.confidence

let certain bound = make ~bound ~confidence:1.0

let of_belief belief ~bound =
  let confidence = Dist.Mixture.prob_le belief bound in
  if confidence <= 0.0 then
    invalid_arg "Claim.of_belief: belief puts no mass at or below the bound";
  make ~bound ~confidence

let is_at_least_as_strong a b =
  a.bound <= b.bound && a.confidence >= b.confidence

let to_string t =
  Printf.sprintf "P(pfd < %g) >= %.6g" t.bound t.confidence
