exception Infeasible of string

let failure_bound (claim : Claim.t) =
  let x = Claim.doubt claim and y = claim.bound in
  x +. y -. (x *. y)

let failure_bound_perfection (claim : Claim.t) ~p0 =
  if p0 < 0.0 then invalid_arg "Conservative.failure_bound_perfection: p0 < 0";
  if p0 > claim.confidence then
    invalid_arg
      "Conservative.failure_bound_perfection: perfection mass exceeds the \
       confidence in the bound";
  let x = Claim.doubt claim and y = claim.bound in
  x +. y -. ((x +. p0) *. y)

let failure_bound_factor (claim : Claim.t) ~k =
  if k < 1.0 then invalid_arg "Conservative.failure_bound_factor: k < 1";
  let x = Claim.doubt claim and y = claim.bound in
  ((1.0 -. x) *. y) +. (x *. min (k *. y) 1.0)

let worst_case_belief (claim : Claim.t) =
  let x = Claim.doubt claim and y = claim.bound in
  if x = 0.0 then Dist.Mixture.atom y
  else Dist.Mixture.make [ (1.0 -. x, Dist.Mixture.Atom y); (x, Dist.Mixture.Atom 1.0) ]

let required_confidence ~target ~bound =
  if not (target > 0.0 && target < 1.0) then
    raise (Infeasible "required_confidence: target must be in (0,1)");
  if bound < 0.0 then raise (Infeasible "required_confidence: bound < 0");
  if bound >= target then
    raise
      (Infeasible
         (Printf.sprintf
            "required_confidence: claim bound %g is not below the target %g \
             - no confidence level suffices"
            bound target));
  (* Solve x + y - x*y = target for x. *)
  let x = (target -. bound) /. (1.0 -. bound) in
  1.0 -. x

let required_bound ~target ~confidence =
  if not (target > 0.0 && target < 1.0) then
    raise (Infeasible "required_bound: target must be in (0,1)");
  if not (confidence > 0.0 && confidence <= 1.0) then
    raise (Infeasible "required_bound: confidence must be in (0,1]");
  let x = 1.0 -. confidence in
  if x >= target then
    raise
      (Infeasible
         (Printf.sprintf
            "required_bound: doubt %g is not below the target %g - no claim \
             bound suffices"
            x target));
  (target -. x) /. (1.0 -. x)

let decade_rule ~target ~decades =
  if decades <= 0.0 then invalid_arg "Conservative.decade_rule: decades <= 0";
  let bound = target /. (10.0 ** decades) in
  let confidence = required_confidence ~target ~bound in
  Claim.make ~bound ~confidence

let examples ~target =
  let ex1 = Claim.make ~bound:target ~confidence:1.0 in
  (* Example 2: certainty-of-perfection traded against doubt equal to the
     target: P(pfd = 0) = 1 - target, all doubt at 1. *)
  let ex2 = Claim.make ~bound:0.0 ~confidence:(1.0 -. target) in
  let ex3 = decade_rule ~target ~decades:1.0 in
  [ ("Example 1: certain of the bound itself", ex1, failure_bound ex1);
    ("Example 2: near-certain perfection", ex2, failure_bound ex2);
    ("Example 3: one-decade-stronger claim", ex3, failure_bound ex3) ]

let feasibility_profile ~target ~bounds =
  Array.map
    (fun bound ->
      match required_confidence ~target ~bound with
      | confidence -> (bound, Some confidence)
      | exception Infeasible _ -> (bound, None))
    bounds
