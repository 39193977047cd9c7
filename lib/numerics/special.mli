(** Special functions needed by the distribution layer.

    All functions are implemented from scratch (the container has no
    scientific library).  Accuracy targets are stated per function; the test
    suite pins them against high-precision reference values. *)

val pi : float

(** [log_gamma x] is [ln (Gamma x)] for [x > 0].  Lanczos approximation,
    relative error below 1e-13 over the tested range. *)
val log_gamma : float -> float

(** [gamma_p a x] is the regularised lower incomplete gamma function
    P(a, x) = gamma(a, x) / Gamma(a), for [a > 0], [x >= 0]. *)
val gamma_p : float -> float -> float

(** [gamma_q a x] = 1 - P(a, x), the regularised upper incomplete gamma. *)
val gamma_q : float -> float -> float

(** [gamma_p_inv a p] solves P(a, x) = p for x, [0 <= p < 1]. *)
val gamma_p_inv : float -> float -> float

(** [erf x] with absolute error below 1e-12. *)
val erf : float -> float

(** [erfc x] = 1 - erf x, computed without cancellation for large [x]. *)
val erfc : float -> float

(** [norm_cdf x] is the standard normal CDF Phi(x). *)
val norm_cdf : float -> float

(** [norm_quantile p] solves Phi(x) = p for [0 < p < 1].  Acklam's rational
    approximation refined with one Halley step; absolute error < 1e-13. *)
val norm_quantile : float -> float

(** [log_beta a b] = ln B(a, b) for [a, b > 0]. *)
val log_beta : float -> float -> float

(** [beta_inc a b x] is the regularised incomplete beta I_x(a, b),
    for [a, b > 0] and [0 <= x <= 1]. *)
val beta_inc : float -> float -> float -> float

(** [beta_inc_inv a b p] solves I_x(a, b) = p for x. *)
val beta_inc_inv : float -> float -> float -> float

(** [log1p x] and [expm1 x] re-exported for convenience. *)
val log1p : float -> float

val expm1 : float -> float

(** [log_sum_exp a b] = ln (e^a + e^b) without overflow. *)
val log_sum_exp : float -> float -> float
