(** Dependability claims with attached confidence.

    A claim states "the pfd is below [bound]" and the assessor holds it with
    probability [confidence] — i.e. doubt x = 1 - confidence that the pfd
    could be anywhere up to 1.  This is the single-point elicited belief
    P(pfd < y) = 1 - x of the paper's Section 3.4. *)

type t = private { bound : float; confidence : float }

(** [make ~bound ~confidence] with [0 <= bound <= 1] (a pfd) and
    [0 < confidence <= 1]. *)
val make : bound:float -> confidence:float -> t

(** [doubt t] = 1 - confidence. *)
val doubt : t -> float

(** [certain bound] — confidence 1. *)
val certain : float -> t

(** [of_belief belief ~bound] — read the confidence for [bound] off a full
    belief distribution: confidence = P(pfd <= bound). *)
val of_belief : Dist.Mixture.t -> bound:float -> t

(** [is_at_least_as_strong a b] — [a] claims a bound no worse than [b]'s at
    confidence no lower than [b]'s. *)
val is_at_least_as_strong : t -> t -> bool

val to_string : t -> string
