(** The paper's conservative (worst-case) treatment of claim doubt
    (Section 3.4).

    Given only the single-point belief P(pfd < y) = 1 - x, the worst
    admissible belief concentrates mass 1-x at y and x at 1, so

      P(system fails on a randomly selected demand) <= x + y - x*y.   (5)

    The solvers below run the paper's reasoning in both directions: from a
    stated claim to the failure-probability bound, and from a target failure
    probability back to the (confidence, bound) pair an argument must
    deliver. *)

exception Infeasible of string

(** [failure_bound claim] — the inequality (5): x + y - x*y. *)
val failure_bound : Claim.t -> float

(** [failure_bound_perfection claim ~p0] — variant when the expert also
    believes the system is perfect (pfd = 0) with probability [p0]
    ([p0 <= confidence]): x + y - (x + p0)*y. *)
val failure_bound_perfection : Claim.t -> p0:float -> float

(** [failure_bound_factor claim ~k] — variant when the doubt mass is known
    to lie within a factor [k >= 1] of the bound rather than at 1:
    (1-x)*y + x*min(k*y, 1). *)
val failure_bound_factor : Claim.t -> k:float -> float

(** [worst_case_belief claim] — the two-atom distribution achieving the
    bound; its mean equals [failure_bound claim]. *)
val worst_case_belief : Claim.t -> Dist.Mixture.t

(** [required_confidence ~target ~bound] — the confidence 1-x* needed in
    "pfd < bound" for the failure probability to meet [target]:
    x* = (target - bound)/(1 - bound).
    @raise Infeasible when [bound >= target] (no confidence suffices). *)
val required_confidence : target:float -> bound:float -> float

(** [required_bound ~target ~confidence] — the claim bound y* needed at the
    given confidence: y = (target - doubt) / (1 - doubt).
    @raise Infeasible when doubt >= target. *)
val required_bound : target:float -> confidence:float -> float

(** [decade_rule ~target ~decades] — the paper's Example 3 generalised: to
    support a failure probability [target] by claiming a bound [decades]
    orders of magnitude stronger, the claim needed is
    (bound = target/10^decades, confidence = [required_confidence]).
    [decades > 0]. *)
val decade_rule : target:float -> decades:float -> Claim.t

(** [examples ~target] — the paper's Examples 1-3 for the given target:
    [(label, claim, failure_bound)] for the pure-bound extreme, the
    perfection extreme, and the one-decade rule. *)
val examples : target:float -> (string * Claim.t * float) list

(** [feasibility_profile ~target ~bounds] — for each candidate claim bound,
    the confidence an argument must deliver (or [None] when infeasible).
    Quantifies "how unforgiving this kind of reasoning" is: at target 1e-5
    every feasible row demands more than 99.999% confidence. *)
val feasibility_profile :
  target:float -> bounds:float array -> (float * float option) array
