(** Running a policy over a synthetic world and scoring the outcomes.

    This quantifies the paper's argument: a regime that ignores assessment
    uncertainty fields more dangerous systems.  For each simulated system
    we know the truth, so we can report the full confusion matrix and the
    realized risk among accepted systems. *)

type outcome = {
  policy : Policy.t;
  systems : int;
  accepted : int;
  accepted_bad : int;  (** Accepted although truly outside the band. *)
  rejected_good : int;  (** Rejected although truly inside the band. *)
  mean_accepted_pfd : float;  (** Realized risk of the accepted fleet. *)
  expected_accidents_per_1000_demands : float;
      (** mean_accepted_pfd * 1000 * acceptance rate: fleet-level risk. *)
  testing_demands : int;  (** Total testing spend. *)
}

(** [run ~world ~assessor ~band ~policy ~systems ~seed] — simulate
    [systems] independent systems through assessment and decision. *)
val run :
  world:Population.t ->
  assessor:Assessor.t ->
  band:Sil.Band.t ->
  policy:Policy.t ->
  systems:int ->
  seed:int ->
  outcome

(** [compare ~world ~assessor ~band ~policies ~systems ~seed] — one outcome
    per policy, same world stream. *)
val compare :
  world:Population.t ->
  assessor:Assessor.t ->
  band:Sil.Band.t ->
  policies:Policy.t list ->
  systems:int ->
  seed:int ->
  outcome list

(** [run_par ?pool ?chunks ~world ~assessor ~band ~policy ~systems ~seed ()]
    — parallel [run] with the Monte-Carlo layer's determinism contract: the
    seed splits into [chunks] independent streams, per-chunk tallies merge
    in chunk order (integer counts exactly, the accepted-pfd sum left to
    right), so the outcome is a pure function of [(seed, chunks)] —
    bit-identical at any domain count.  The chunked stream differs from the
    scalar [run] stream.  [chunks] resolves as in
    [Numerics.Parallel.resolve_chunks]. *)
val run_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  world:Population.t ->
  assessor:Assessor.t ->
  band:Sil.Band.t ->
  policy:Policy.t ->
  systems:int ->
  seed:int ->
  unit ->
  outcome

(** [compare_par ?pool ?chunks ~world ~assessor ~band ~policies ~systems
    ~seed ()] — one [run_par] outcome per policy, same seed (hence the same
    world stream per chunk across policies). *)
val compare_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  world:Population.t ->
  assessor:Assessor.t ->
  band:Sil.Band.t ->
  policies:Policy.t list ->
  systems:int ->
  seed:int ->
  unit ->
  outcome list

(** [summary_table outcomes] — rendered comparison. *)
val summary_table : outcome list -> string
