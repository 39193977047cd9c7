(** Demand-based failure simulation against a belief over pfd.

    Verifies the paper's equation (4) — P(system fails on a randomly
    selected demand) = integral of p f(p) dp — and the conservative bound
    (5) empirically: draw a pfd from the belief, then draw demands. *)

(** [failure_probability ~n rng belief] — Monte-Carlo estimate of the
    probability that a randomly selected demand fails, marginalised over the
    belief.  Should agree with [Dist.Mixture.mean belief]. *)
val failure_probability :
  n:int -> Numerics.Rng.t -> Dist.Mixture.t -> Mc.estimate

(** [failure_probability_par ?pool ?chunks ~n ~seed belief] — parallel
    [failure_probability] via [Mc.estimate_par_batched_col]: pfds and
    Bernoulli uniforms are drawn a segment at a time into scratch columns
    borrowed from [Mc.with_scratch].
    Bit-identical for a fixed [(seed, chunks)] at any domain count; the
    batched stream differs from the scalar [failure_probability] one.
    [chunks] defaults to [Parallel.default_chunks]. *)
val failure_probability_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  Dist.Mixture.t ->
  Mc.estimate

(** [failures_in_campaign ~n_systems ~demands rng belief] — for each
    simulated system (pfd drawn from the belief), count failures over a
    test campaign; returns the per-system failure counts. *)
val failures_in_campaign :
  n_systems:int -> demands:int -> Numerics.Rng.t -> Dist.Mixture.t -> int array

(** [check_conservative_bound ~n rng claim] — simulate demand failures under
    the worst-case belief for [claim] and also return the analytic bound;
    the estimate's CI should cover the bound (the worst case attains it). *)
val check_conservative_bound :
  n:int -> Numerics.Rng.t -> Confidence.Claim.t -> Mc.estimate * float

(** [check_conservative_bound_par ?pool ?chunks ~n ~seed claim] — the same
    check over the parallel path (deterministic split-stream fan-out). *)
val check_conservative_bound_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  Confidence.Claim.t ->
  Mc.estimate * float

(** [pfd_sketch_par ?pool ?compression ?chunks ~n ~seed belief] — stream
    [n] pfd draws (clamped to [0,1], as every demand-simulation consumer
    sees them) into a mergeable quantile sketch via [Mc.sketch_par_col]:
    credible intervals and band masses of the belief in O(compression)
    memory.  Same determinism contract as [Mc.sketch_par_col]. *)
val pfd_sketch_par :
  ?pool:Numerics.Parallel.pool ->
  ?compression:float ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  Dist.Mixture.t ->
  Numerics.Sketch.t

(** [pfd_tail_is ?pool ?chunks ~n ~seed ~y belief] — importance-sampled
    estimate of P(pfd > y) under [belief], for [0 < y < 1].  Atoms of the
    mixture resolve exactly; each continuous component is estimated with
    [n] draws from the tilted proposal that {!Proposal.tail} builds for
    its family (falling back to plain sampling of the component itself —
    unit weights — when no mechanical tilt exists), using the derived
    seed [seed + 7919 × (index + 1)] so component streams are independent
    and reproducible.

    Deep tails that [probability_par] cannot see at feasible [n] (it
    needs ~1/P hits just to observe one) resolve here with relative error
    governed by the bounded weights — typically 10²–10⁴× fewer samples at
    y where P is 10⁻³–10⁻⁷.  The combined [plain]/[self_norm] estimates
    add the exact atom mass to the weight-averaged component estimates
    (standard errors combine in quadrature); [ess] reports the worst
    (smallest) component ESS, [max_weight_share] the worst (largest)
    share, and [sum_weights] the component-weighted total.  For an
    atoms-only belief the result is exact (zero standard error).  Same
    determinism contract as [Mc.estimate_is]. *)
val pfd_tail_is :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  y:float ->
  Dist.Mixture.t ->
  Mc.is_estimate

(** [survival_curve ~n_systems ~checkpoints rng belief] — fraction of
    simulated systems still failure-free at each demand checkpoint;
    converges to E[(1-p)^n]. *)
val survival_curve :
  n_systems:int ->
  checkpoints:int list ->
  Numerics.Rng.t ->
  Dist.Mixture.t ->
  (int * float) list

(** [survival_curve_par ?pool ?chunks ~n_systems ~seed ~checkpoints belief]
    — parallel [survival_curve].  Per-chunk survivor counts are integers and
    merge by exact summation in chunk order, so the curve is bit-identical
    for a fixed [(seed, chunks)] at any domain count.  The per-chunk stream
    is batched (segment-wise pfd draws, inverse-transform geometrics) and so
    differs from the scalar [survival_curve] one.  [chunks] defaults to
    [Parallel.default_chunks]. *)
val survival_curve_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n_systems:int ->
  seed:int ->
  checkpoints:int list ->
  Dist.Mixture.t ->
  (int * float) list
