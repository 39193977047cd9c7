(** One entry point per table/figure of the paper, each returning the
    regenerated data as text (tables of series, rendered tables, and
    terminal plots).  The registry at the bottom drives the bench harness
    and the CLI. *)

(** Table 1 — the IEC 61508 SIL band definitions (both modes). *)
val table1 : unit -> string

(** Figure 1 — judgement densities on a log-x grid (mode 0.003, three
    spreads; the paper's checkpoints on means are printed). *)
val figure1 : unit -> string

(** Figure 2 — the same densities on a linear scale. *)
val figure2 : unit -> string

(** Figure 3 — mean failure rate vs one-sided confidence in SIL2, mode held
    at 0.003; prints the ~67% crossover. *)
val figure3 : unit -> string

(** Figure 4 — confidence that the rate is better than a bound, for the
    three Figure-1 beliefs. *)
val figure4 : unit -> string

(** Figure 5 — the simulated 12-expert, 4-phase Delphi experiment, plus a
    200-panel replication study fanned out over the domain pool and a QMC
    variant of the replication (scrambled-Sobol seed stratification). *)
val figure5 : unit -> string

(** Section 3.4 — conservative-bound worked examples and the feasibility
    profile at targets 1e-3 and 1e-5, with a Monte-Carlo check of
    inequality (5) run on the parallel split-stream path (n = 300,000) and
    an importance-sampled doubt table for the Example-3 belief. *)
val conservative_examples : unit -> string

(** Section 3.4 footnote — the perfection-atom variant of the bound. *)
val perfection_bound : unit -> string

(** Section 3.4 recast as imprecise probability: inequality (5) is the
    upper expectation of the partial-belief p-box, and fusing legs
    tightens it distribution-free. *)
val pbox_view : unit -> string

(** Section 4.3 — the effect of IEC 61508's 70/95/99/99.9% confidence
    requirements, and claim discounts by argument rigour. *)
val standards : unit -> string

(** Section 3 — Figure 3 repeated under a gamma judgement distribution
    (sensitivity to the log-normal assumption). *)
val gamma_sensitivity : unit -> string

(** Section 4.1 — tail cut-off by failure-free demands: confidence and mean
    trajectories, demands needed per SIL, provisional upgrade schedule, a
    parallel simulated cross-check of the survival probabilities, and an
    importance-sampled tail-mass table cross-checked against the quantile
    sketch. *)
val tail_cutoff : unit -> string

(** Section 4.2 — two-legged arguments: dependence sweep of the combined
    doubt, and the BBN shared-assumption model. *)
val multileg : unit -> string

(** Section 4.1 / reference 13 — the conservative MTBF bound vs the
    Jelinski-Moranda model. *)
val conservative_mtbf : unit -> string

(** ACARP — assurance programme planning on the paper's running example
    (an extension exercising Section 4.1's strategy). *)
val acarp_planning : unit -> string

(** Section 1 — "What effect does this 'assessment uncertainty' have upon
    decision-making?"  Answered by simulation: acceptance policies that do
    and do not quantify confidence, run over a synthetic world with known
    true pfds, scored by fielded-bad-system counts and fleet risk. *)
val decision_impact : unit -> string

(** Variance reduction head-to-head — plain MC vs QMC vs importance
    sampling on the tail mass P(pfd > y) of an ultra-reliable belief,
    with a samples-to-10%-relative-error table per method. *)
val variance_reduction : unit -> string

(** The registry: (id, paper anchor, generator). *)
val all : (string * string * (unit -> string)) list

(** [csv_exports ()] — (filename, CSV content) for every figure's raw
    series, for external plotting. *)
val csv_exports : unit -> (string * string) list

(** [run_one ?pool id] — regenerate a single experiment, running its
    Monte-Carlo loops on [pool] (default: [Parallel.global_pool ()]).
    The output does not depend on the pool's domain count.
    @raise Not_found for unknown ids. *)
val run_one : ?pool:Numerics.Parallel.pool -> string -> string
