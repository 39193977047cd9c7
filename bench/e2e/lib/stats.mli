(** The benchmark's statistics rules, in one place so every workload
    reports timings the same way.

    Timings are reported as a median and the highest percentile with at
    least ten samples beyond it, with the sample count.  A failed, shed or
    unanswered request enters a sample as [infinity], so it counts as
    missing any latency limit. *)

(** [rank ~n p] — the nearest rank (1-based) of percentile [p] in (0,1]
    over [n] samples: the smallest rank with at least a share [p] of the
    samples at or below it. *)
val rank : n:int -> float -> int

(** [percentile sorted p] — the nearest-rank percentile of an ascending
    array.  @raise Invalid_argument on an empty array. *)
val percentile : float array -> float -> float

(** [sort xs] — an ascending copy ([infinity] sorts last). *)
val sort : float array -> float array

(** [median xs] — [percentile (sort xs) 0.5]. *)
val median : float array -> float

(** [tail_level n] — the highest of p90, p99, p99.9, p99.99, p99.999 with
    at least ten of [n] samples beyond it; [None] below 100 samples. *)
val tail_level : int -> float option

type summary = {
  n : int;
  p50 : float;
  tail : (float * float) option;  (** [(level, value)] per {!tail_level}. *)
}

val summarize : float array -> summary

(** [within xs ~limit] — the share of samples at or below [limit]. *)
val within : float array -> limit:float -> float

(** {1 Capacity from a rate ladder} *)

(** One ladder step: offered rate, the share of its requests answered
    within the latency limit, and the requests the server shed. *)
type step = { rate : float; good : float; shed : int }

(** The share of requests that must meet the limit for a step to pass. *)
val required_share : float

(** [passes s] — [s.good >= required_share] and nothing was shed. *)
val passes : step -> bool

type knee = Inside | Below_ladder | Above_ladder

(** [max_rps steps] — the highest passing rate, interpolated in log-rate
    between the highest passing step and the step above it, at the point
    where the share within the limit falls to {!required_share}; so the
    result is not rounded to a ladder step.  When no step passes it is the
    lowest rate ([Below_ladder]); when the top step passes, the top rate
    ([Above_ladder]).  Steps must be in ascending rate order.
    @raise Invalid_argument on an empty ladder. *)
val max_rps : step list -> float * knee
