(** Population-scale Delphi: the four-phase panel simulation of
    {!Delphi}, scaled from a dozen experts to millions of synthetic
    assessors via batched column kernels over [Numerics.Parallel].

    The panel state is held in three parallel columns (log-peak, sigma,
    learning rate, one slot per assessor); each phase is an element-wise
    kernel plus at most one population-wide reduction (the
    precision-weighted group view in phase 3, the group median in phase
    4), so a phase costs O(n / domains).  Doubter/believer proportions
    and the believer heterogeneity profile mirror {!Delphi.run} with the
    expert index rescaled to the population.

    Determinism: the result is a pure function of [(config.seed, n,
    chunks)] — per-chunk RNG streams come from
    [Numerics.Parallel.streams], reductions fold in chunk order, and the
    per-phase quantile bands come from mergeable t-digests combined in
    chunk order — so it is bit-identical at any domain count. *)

(** Quantile band of the believer population's per-assessor SIL 2
    confidence P(pfd <= 1e-2). *)
type bands = { q05 : float; q25 : float; q50 : float; q75 : float; q95 : float }

type phase_stats = {
  phase : Delphi.phase;
  pooled_mean : float;  (** Mean pfd of the equal-weight believer pool. *)
  confidence_sil2 : float;  (** Pool P(pfd <= 1e-2). *)
  confidence_sil1 : float;  (** Pool P(pfd <= 1e-1). *)
  sil2_bands : bands;
}

type result = {
  n : int;
  n_doubters : int;
  n_believers : int;
  chunks : int;
  phases : phase_stats list;  (** One entry per phase, in phase order. *)
}

(** [run ?pool ?chunks ?compression config ~n] — simulate a population
    of [n] assessors ([n >= 2]) under the panel [config] (validated by
    {!Delphi.check_config}; [config.n_experts]/[config.n_doubters] set
    the doubter {e proportion}).  [chunks] resolves as in
    [Numerics.Parallel.resolve_chunks]; [compression] is the t-digest
    compression for the quantile bands (default 200). *)
val run :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  ?compression:float ->
  Delphi.config ->
  n:int ->
  result

(** [summary_table result] — one row per phase: pooled mean, pool
    confidences, and the believer SIL 2 confidence quantile band. *)
val summary_table : result -> string
