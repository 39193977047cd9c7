(** Monte-Carlo estimation with error reporting. *)

type estimate = {
  mean : float;
  std_error : float;
  ci95_lo : float;
  ci95_hi : float;
  n : int;
}

(** [estimate ~n rng f] — sample [f rng] [n] times ([n >= 2]). *)
val estimate : n:int -> Numerics.Rng.t -> (Numerics.Rng.t -> float) -> estimate

(** [probability ~n rng event] — estimate P(event) from Bernoulli trials,
    with the normal-approximation CI. *)
val probability : n:int -> Numerics.Rng.t -> (Numerics.Rng.t -> bool) -> estimate

(** Samples per scratch-buffer refill on the batched path.  Part of the
    stream definition, like [chunks]: a fill function may legitimately
    draw differently for one long segment than for two short ones, so the
    segmentation is pinned rather than tunable. *)
val batch_size : int

(** A batched sampler: [fill rng buf ~pos ~len] writes [len] samples into
    [buf.{pos} ..] of [Bigarray.Array1] column storage ([Columns.unsafe_data]
    of a scratch column), advancing [rng].  Must be a pure function of the
    generator state (and [len]) — no dependence on domain identity.  The
    [Rng.fill_*_col], [Dist.sample_into_col] and [Mixture.sample_into_col]
    kernels are the building blocks. *)
type batch_fill_col =
  Numerics.Rng.t -> Numerics.Columns.ba -> pos:int -> len:int -> unit

(** [fill_col_of_scalar f] — lift a scalar sampler into a
    {!batch_fill_col} that draws [f rng] once per slot, in slot order.
    The lifted fill consumes the generator exactly as a scalar loop would,
    so for a fixed [(seed, chunks)] [estimate_par_batched_col] over it
    equals a per-chunk scalar Welford loop over [f] bit for bit, and a
    sketch built over it describes {e the same sample multiset}.  [f] may
    itself run batched Monte-Carlo (see {!with_scratch}). *)
val fill_col_of_scalar : (Numerics.Rng.t -> float) -> batch_fill_col

(** [with_scratch len f] — run [f] on a scratch column of length [len]
    borrowed from the calling domain's scratch stack, and return it to the
    stack when [f] returns or raises.  Nested or side-by-side borrows on
    one domain get distinct columns, so a sampler that itself runs a
    batched estimate cannot overwrite its caller's slots; once the stack
    is as deep as the deepest nesting, borrowing allocates nothing.  The
    contents on entry are whatever an earlier borrow left: write before
    reading.  The column must not escape [f]. *)
val with_scratch : int -> (Numerics.Columns.t -> 'a) -> 'a

(** [estimate_par_batched_col ?pool ?chunks ~n ~seed make_fill] — the
    parallel Monte-Carlo mean of [n] samples, allocation-free.  The seed
    fans out by [Numerics.Parallel.fan_out]: chunk [i] draws its share
    of [n] from stream [i], [batch_size] at a time, into a scratch column
    borrowed with {!with_scratch} via the fill returned by [make_fill ()],
    folds the column with [Summary.Online.add_column], and the per-chunk
    Welford states merge in chunk order ([Summary.Online.merge]).

    [make_fill] is called once per chunk, inside the executing domain, so
    any scratch state the fill closes over is domain-local.  Determinism
    contract: bit-identical at any domain count for fixed [(seed, chunks)]
    — only changing [chunks] or [seed] changes the sample streams.
    [chunks] resolves as in [Numerics.Parallel.resolve_chunks] (the
    [CONFCASE_CHUNKS] environment variable, else [8 × domains]); pass it
    explicitly — as the repro layer does — when cross-machine
    reproducibility matters.  Segmentation by [batch_size] is part of the
    stream's definition. *)
val estimate_par_batched_col :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (unit -> batch_fill_col) ->
  estimate

(** [probability_par ?pool ?chunks ~n ~seed event] — parallel [probability]:
    [estimate_par_batched_col] over the [fill_col_of_scalar] lift of the
    indicator of [event], under the same determinism contract.  [event]
    must be safe to call from several domains at once on distinct
    generators. *)
val probability_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (Numerics.Rng.t -> bool) ->
  estimate

(** [sketch_par_col ?pool ?compression ?chunks ~n ~seed make_fill] —
    stream [n] samples (same fan-out, segmentation and column scratch as
    [estimate_par_batched_col]) into per-chunk {!Numerics.Sketch} digests
    and fold them in chunk order with the allocation-free
    [Sketch.merge_into] (bit-identical to [Sketch.merge]).  Memory is
    O(chunks × compression) — independent of [n] — so this is how to get
    quantiles of a Monte-Carlo output without materialising the sample
    array.

    Determinism contract: the merge is deterministic and the fold order is
    fixed, so the returned sketch — and every quantile read from it — is a
    pure function of [(seed, chunks, n, compression)]: bit-identical at
    any domain count.  Note that the sketch itself is an
    {e approximation}; accuracy bounds are documented in
    {!Numerics.Sketch}. *)
val sketch_par_col :
  ?pool:Numerics.Parallel.pool ->
  ?compression:float ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (unit -> batch_fill_col) ->
  Numerics.Sketch.t

(** [estimate_quantiles_par ?pool ?compression ?chunks ~n ~seed ~ps
    make_fill] — [estimate_par_batched_col] and the [ps]-quantiles of
    [sketch_par_col] over the same arguments, from one fan-out: each chunk
    fills its column once and feeds it to both the Welford state and the
    sketch.
    Both halves equal the separate calls bit for bit.  [n >= 2]. *)
val estimate_quantiles_par :
  ?pool:Numerics.Parallel.pool ->
  ?compression:float ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  ps:float array ->
  (unit -> batch_fill_col) ->
  estimate * float array

(** {1 Variance reduction}

    Importance sampling, quasi-Monte-Carlo and stratified/antithetic
    wrappers.  All entry points obey the stream rule of
    [Numerics.Parallel]: for a fixed [(seed, chunks)] (or
    [(seed, replicates)] for QMC) the result is bit-identical at any
    domain count. *)

(** Importance-sampling estimate with diagnostics.

    [plain] is the unbiased estimator (1/n) Σ wᵢ f(xᵢ) — valid when both
    target and proposal densities are normalised.  [self_norm] is the
    self-normalised ratio Σ wᵢ f(xᵢ) / Σ wᵢ with a delta-method standard
    error — biased O(1/n) but tolerant of unnormalised targets (e.g. a
    posterior known up to its evidence).  [ess] is the Kish effective
    sample size (Σw)²/Σw²; [max_weight_share] is the largest single
    weight's share of Σw.  An [ess] far below [n] or a [max_weight_share]
    near 1 signals weight degeneracy: the proposal misses where the
    target×integrand mass lives and the reported CIs may be optimistic. *)
type is_estimate = {
  plain : estimate;
  self_norm : estimate;
  ess : float;
  max_weight_share : float;
  sum_weights : float;
}

(** [estimate_is ?pool ?chunks ~n ~seed ~target ~proposal f] — estimate
    E_target[f(X)] by drawing from [proposal] (via the batched
    [Dist.sample_into_col] path) and reweighting each draw by
    [exp (target.log_pdf x -. proposal.log_pdf x)].

    The proposal must dominate the target where [f] is non-zero
    (proposal density positive wherever target density × f is); a weight
    that comes out non-finite raises [Invalid_argument].  Per-chunk
    weight sums merge by componentwise addition in chunk order, so the
    determinism contract of [estimate_par_batched_col] carries over
    verbatim. *)
val estimate_is :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  target:Dist.t ->
  proposal:Dist.t ->
  (float -> float) ->
  is_estimate

(** [estimate_is_weighted ?pool ?chunks ~n ~seed ~proposal ~log_weight f]
    — generalised form of [estimate_is] taking the log-weight function
    directly (useful when the target density is only known through an
    unnormalised log-density, or when the weight has a simplified closed
    form). *)
val estimate_is_weighted :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  proposal:Dist.t ->
  log_weight:(float -> float) ->
  (float -> float) ->
  is_estimate

(** [probability_is ?pool ?chunks ~n ~seed ~target ~proposal event] —
    [estimate_is] of the indicator of [event]: P_target(event).  With a
    proposal concentrated on the event this resolves tail probabilities
    orders of magnitude below what [probability_par] can see at the same
    [n]. *)
val probability_is :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  target:Dist.t ->
  proposal:Dist.t ->
  (float -> bool) ->
  is_estimate

(** [estimate_qmc ?pool ?replicates ~dim ~n ~seed f] — quasi-Monte-Carlo
    mean of [f] over the unit cube [0,1){^dim}: [replicates] (default 16,
    minimum 2) independently scrambled Sobol nets of [n] points each,
    evaluated in parallel (one replicate per chunk, merged in replicate
    order).  [f] receives each point as a [floatarray] of length [dim]
    valid only for the duration of the call, and must be pure.

    The returned mean averages the replicate means ([n] field =
    [replicates × n] total evaluations); the CI comes from the spread of
    the [replicates] i.i.d. replicate means, so it is honest even though
    points within a replicate are correlated.  For smooth integrands the
    error decays near O(n⁻¹) instead of Monte-Carlo's O(n⁻¹ᐟ²).
    Replicate [r] scrambles from [Numerics.Parallel.streams] stream [r],
    so the result is a pure function of [(seed, replicates, n, dim)]. *)
val estimate_qmc :
  ?pool:Numerics.Parallel.pool ->
  ?replicates:int ->
  dim:int ->
  n:int ->
  seed:int ->
  (floatarray -> float) ->
  estimate

(** [estimate_par_stratified ?pool ?chunks ~n ~seed f_of_u] — estimate
    E[f(U)] for U uniform on [0,1) with each chunk's share stratified:
    slot [j] of a size-[m] chunk draws its uniform from the sub-interval
    [[j/m, (j+1)/m)].  Strictly never increases the sampling variance of
    the chunk means, and collapses it for monotone or smooth [f_of_u]
    (use [fun u -> f (Dist.quantile d u)] to stratify over a
    distribution).  The reported CI treats observations as i.i.d. and is
    therefore conservative under stratification.  Same determinism
    contract and [batch_size] segmentation as
    [estimate_par_batched_col]. *)
val estimate_par_stratified :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (float -> float) ->
  estimate

(** [estimate_par_antithetic ?pool ?chunks ~n ~seed f_of_u] — antithetic
    variant of [estimate_par_stratified]'s uniform view: [n/2] pairs
    (v, 1−v), each contributing the single observation
    (f(v) + f(1−v))/2.  The pair means are i.i.d., so the CI is exact in
    the usual asymptotic sense; variance improves whenever [f_of_u] is
    monotone (perfectly anticorrelated halves).  [n] must be even and at
    least 4. *)
val estimate_par_antithetic :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (float -> float) ->
  estimate

(** [within estimate x] — does [x] fall inside the 95% CI? *)
val within : estimate -> float -> bool
