(** Empirical distributions from samples (Monte-Carlo outputs, simulated
    expert panels).

    Construction is O(n): the samples are copied but {e not} sorted.
    [size]/[mean]/[variance]/[resample] never sort; a single [quantile]
    runs in expected O(n) via selection ({!Numerics.Select}); the first
    CDF/grid consumer ([cdf], [kde], [to_dist]) materialises the sorted
    view once, after which quantiles are O(1) lookups.  The lazy state is
    internal mutation only — values never change — but it makes a [t] not
    safe to share across domains without external synchronisation.

    Storage is columnar ({!Numerics.Columns}): samples live in unboxed
    float64 bigarray columns, so a pool can be adopted zero-copy from a
    batched-kernel scratch buffer or an mmapped snapshot
    ([Columns.load ~mmap:true]) without ever becoming a [float array].

    {2 Memory layouts and the aliasing contract}

    The default layout ([of_samples], [of_column] without [~share]) keeps
    {e two} buffers once an order statistic has been requested: [raw] in
    construction order (what [resample] draws from) plus a sorted scratch.
    When the caller never needs construction order — the common case for
    anonymous Monte-Carlo pools — pass [~share:true] to [of_column] /
    [of_bigarray]: the distribution then owns a {e single} buffer which
    order-statistic calls reorder in place.  Consequences, which are the
    contract: the caller must not read the column through its own alias
    expecting construction order after any [quantile]/[cdf]/[kde]/[to_dist]
    call, and [resample] draws from the current (possibly reordered)
    arrangement — the same multiset, so bootstrap marginals are unchanged,
    but the draw-index-to-value mapping is not the construction one. *)

type t

(** [of_samples xs] — requires a non-empty array; copies it (no sort). *)
val of_samples : float array -> t

(** [of_column ?share col] — adopt a column without copying ([col] must be
    non-empty).  With [~share:true] the single-buffer layout is used: [col]
    itself is reordered in place by order-statistic calls (see the aliasing
    contract above).  Without it, [col] is treated as the immutable
    construction-order buffer and a private scratch is copied lazily. *)
val of_column : ?share:bool -> Numerics.Columns.t -> t

val size : t -> int
val mean : t -> float

(** Unbiased sample variance; requires >= 2 samples. *)
val variance : t -> float

(** [samples_col t] — the underlying sample column, in construction order
    for the default layout, current arrangement for [~share:true].  This
    is the snapshot seam: persist with [Columns.save] and rebuild with
    [of_column].  Aliases the live storage — do not mutate. *)
val samples_col : t -> Numerics.Columns.t

(** [shared t] — whether the single-buffer ([~share:true]) layout is in
    use. *)
val shared : t -> bool

(** [cdf t x] — step ECDF, P(X <= x).  Forces the sorted view. *)
val cdf : t -> float -> float

(** [quantile t p] — type-7 interpolated quantile, [0 <= p <= 1].
    Selection-based until the sorted view exists, then a lookup. *)
val quantile : t -> float -> float

(** [sorted_materialized t] — whether the O(n log n) sorted view has been
    built yet.  Diagnostic (used by the laziness regression tests);
    cheap-stats consumers should see [false] forever. *)
val sorted_materialized : t -> bool

(** [resample t rng] — one bootstrap draw (see the aliasing contract for
    what "construction order" means under [~share:true]). *)
val resample : t -> Numerics.Rng.t -> float

(** [to_dist t] — kernel-free continuous approximation built by linear
    interpolation of the ECDF (usable wherever a {!Base.t} is expected;
    requires >= 8 distinct values). *)
val to_dist : t -> Base.t

(** [kde ?bandwidth t] — Gaussian kernel density estimate as a full
    distribution; bandwidth defaults to Silverman's rule.  Requires >= 8
    distinct values and positive sample spread. *)
val kde : ?bandwidth:float -> t -> Base.t
