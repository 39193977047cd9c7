(** Bounded-memory streaming quantile sketch (a merging t-digest).

    Summarises an arbitrarily long stream of floats in O(compression)
    memory while answering quantile and CDF queries with error that is
    smallest in the tails — exactly where the dependability-case numbers
    (SIL band masses, tail cutoffs, credible-interval endpoints) live.
    Centroids are spaced by the scale function
    k(q) = δ/2π · asin(2q−1), which bounds the sketch at ≈ δ/2 centroids
    and gives q-space error that shrinks like q(1−q)/δ (see THEORY §9.3
    for the measured bounds).

    Determinism contract: every operation is a pure function of the
    insertion/merge history — there is no randomised agglomeration — so
    two sketches fed the same stream are identical, and a fold of
    [merge] over per-chunk sketches {e in chunk order} yields the same
    sketch whatever the domain count.  [merge] is only {e approximately}
    associative (re-bracketing changes centroid boundaries within the
    error bound), which is why the parallel layer fixes the fold order.

    Not thread-safe: confine a sketch to one domain; combine across
    domains with [merge]. *)

type t

(** [create ?compression ()] — an empty sketch.  [compression] (δ, default
    200) trades memory for accuracy; must be >= 10. *)
val create : ?compression:float -> unit -> t

(** [compression t]. *)
val compression : t -> float

(** [add t x] — observe one value.  NaN is rejected ([Invalid_argument]):
    a quantile summary has no meaningful place for it. *)
val add : t -> float -> unit

(** [count t] — number of values observed. *)
val count : t -> int

(** [minimum t] / [maximum t] — exact extremes of the stream; requires a
    non-empty sketch. *)
val minimum : t -> float

val maximum : t -> float

(** [quantile t p] — estimated p-quantile, [0 <= p <= 1]; exact at p = 0
    and p = 1.  Requires a non-empty sketch.  May compress the internal
    buffer (the summarised distribution is unchanged). *)
val quantile : t -> float -> float

(** [cdf t x] — estimated P(X <= x); 0 below the minimum, 1 above the
    maximum.  Requires a non-empty sketch. *)
val cdf : t -> float -> float

(** [merge a b] — a fresh sketch equivalent to having observed [a]'s
    stream followed by [b]'s.  Both arguments must share a compression
    ([Invalid_argument] otherwise); their summarised distributions are
    unchanged (internal buffers may be compressed in place).  An empty
    sketch is an identity.  Deterministic: a pure function of the two
    sketch states. *)
val merge : t -> t -> t

(** [merge_into ~into src] — absorb [src]'s stream into [into] in place:
    equivalent to [into := merge into src] but recycling [into]'s centroid
    columns and the calling domain's merge scratch, so a fold over many
    per-chunk sketches allocates nothing per step.  Produces bit-identical centroid state to {!merge}
    (same merge and compression sequence).  [src] is not mutated beyond a
    buffer flush. *)
val merge_into : into:t -> t -> unit

(** [add_column t col ~pos ~len] — observe elements [pos] ..
    [pos+len-1] of [col] in order; equivalent to calling {!add} per
    element (the batched Monte-Carlo hot path). *)
val add_column : t -> Columns.t -> pos:int -> len:int -> unit

(** [flush t] — summarise the buffered values into centroids now, as
    every query and merge does first; the state reached is the same
    whenever it runs.  A fan-out flushes each chunk's sketch in the
    chunk's own domain, so the chunk-order merge does no sorting. *)
val flush : t -> unit

(** [centroid_count t] — number of centroids currently held (compresses
    first); bounded by ≈ compression/2 interior centroids plus a handful
    of forced tail singletons, regardless of [count t]. *)
val centroid_count : t -> int

(** {2 Snapshots}

    [to_columns t] — the summarised state as named columns ("mean",
    "weight", plus a 4-slot "meta" of compression/total/lo/hi), suitable
    for [Columns.save].  Flushes first, so the round-trip
    [of_columns (to_columns t)] reproduces the sketch bit-exactly.  The
    "mean"/"weight" entries alias the live centroid storage — save them
    before mutating the sketch further. *)
val to_columns : t -> (string * Columns.t) list

(** [of_columns cols] — rebuild a sketch from {!to_columns} output (or a
    [Columns.load] of it); [Failure] on missing or malformed columns.
    Centroids are copied in, so the input columns (mmapped or not) are
    not retained. *)
val of_columns : (string * Columns.t) list -> t
