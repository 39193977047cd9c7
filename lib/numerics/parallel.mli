(** Fixed-size domain pool for deterministic fan-out of chunked work.

    The pool owns [num_domains - 1] worker domains (stdlib [Domain]); the
    calling domain participates in every batch, so a pool of size 1 never
    spawns and runs everything sequentially in the caller.  Work is always
    expressed as [chunks] independent chunk indices; results are collected
    into an array indexed by chunk and reduced {e in chunk order}, so the
    outcome of a batch is a pure function of [(chunks, body)] — it does not
    depend on how many domains exist or how the scheduler interleaves them.
    That property is what lets the Monte-Carlo layer promise bit-identical
    results for a fixed (seed, chunk count) at any domain count.

    Pools degrade gracefully: if [Domain.spawn] fails (resource limits,
    nested spawn restrictions), the pool simply runs with fewer workers —
    in the worst case sequentially — without raising. *)

type pool

(** [default_num_domains ()] — the [CONFCASE_DOMAINS] environment variable
    if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)
val default_num_domains : unit -> int

(** [create ?num_domains ()] — build a pool; [num_domains] defaults to
    [default_num_domains ()] and must be >= 1.  The pool holds
    [num_domains - 1] spawned workers (fewer if spawning fails). *)
val create : ?num_domains:int -> unit -> pool

(** [num_domains pool] — effective parallelism: spawned workers plus the
    participating caller.  May be less than requested if spawning failed. *)
val num_domains : pool -> int

(** [shutdown pool] — stop and join the workers.  Idempotent.  Batches must
    not be in flight. *)
val shutdown : pool -> unit

(** [with_pool ?num_domains f] — [create], run [f], [shutdown] (also on
    exceptions). *)
val with_pool : ?num_domains:int -> (pool -> 'a) -> 'a

(** [global_pool ()] — the process-wide shared pool ([default_num_domains]
    wide), created lazily on first call and shut down at process exit.
    Reusing it across experiments and bench iterations avoids re-spawning
    domains (each spawn costs a stop-the-world synchronisation).  Intended
    to be called from the main domain; do not [shutdown] it yourself. *)
val global_pool : unit -> pool

(** [chunk_sizes ~n ~chunks] — split [n] work items into [chunks] near-equal
    chunk sizes (the first [n mod chunks] chunks get one extra item); the
    sizes sum to [n].  [n >= 0], [chunks >= 1]. *)
val chunk_sizes : n:int -> chunks:int -> int array

(** [default_chunks ?pool ()] — the chunk count a parallel entry point
    should use when its caller does not care: the [CONFCASE_CHUNKS]
    environment variable if set to a positive integer, otherwise
    [8 × domains] (oversubscription keeps every domain busy when chunk
    costs are uneven, at a per-chunk dispatch cost of one atomic
    increment).  [domains] is [num_domains pool] when [pool] is given,
    else [default_num_domains ()].

    Note the determinism trade-off: parallel MC results are a pure
    function of [(seed, chunks)], so letting the chunk count track the
    machine's domain count makes the {e default} results machine-dependent
    (each run is still internally deterministic and domain-count
    independent).  Pin [CONFCASE_CHUNKS] — or pass [~chunks] explicitly,
    as the repro layer does — for cross-machine bit-reproducibility. *)
val default_chunks : ?pool:pool -> unit -> int

(** [default_chunks_with ~domains ~spec] — the pure decision function
    behind {!default_chunks}: [spec] is the raw [CONFCASE_CHUNKS] value
    (ignored unless it parses to a positive integer).  Exposed for
    tests. *)
val default_chunks_with : domains:int -> spec:string option -> int

(** [map_chunks ?pool ~chunks body] — evaluate [body i] for every
    [i in 0 .. chunks - 1] across the pool and return the results in chunk
    order.  Without [?pool] a transient pool of [default_num_domains ()]
    domains is created for the call.  If any [body i] raises, one of the
    raised exceptions is re-raised in the caller after the batch drains; the
    pool remains usable.  Not reentrant: [body] must not itself submit work
    to the same pool. *)
val map_chunks : ?pool:pool -> chunks:int -> (int -> 'a) -> 'a array

(** [parallel_for_reduce ?pool ~chunks ~init ~body ~merge] — fold [merge]
    over the chunk results {e in chunk index order}:
    [merge (... (merge init (body 0)) ...) (body (chunks-1))].  The fold
    order is fixed, so a non-commutative (or floating-point) [merge] still
    yields domain-count-independent results. *)
val parallel_for_reduce :
  ?pool:pool ->
  chunks:int ->
  init:'b ->
  body:(int -> 'a) ->
  merge:('b -> 'a -> 'b) ->
  'b

(** {1 The stream rule}

    Every parallel entry point follows one rule: it resolves its chunk
    count with {!resolve_chunks}, cuts its [n] items into the slices of
    {!slice_bounds}, gives chunk [i] stream [i] of {!streams}, and folds
    the chunk results in chunk order.  The result is then a pure function
    of [(seed, chunks)], bit-identical at any domain count.  {!fan_out}
    is the rule in one call. *)

(** [resolve_chunks ?pool ?chunks name] — an explicit [chunks] wins, and
    raises [Invalid_argument "<name>: chunks < 1"] below 1; otherwise
    [default_chunks ?pool ()]. *)
val resolve_chunks : ?pool:pool -> ?chunks:int -> string -> int

(** [slice_bounds ~n ~chunks] — [chunks + 1] ascending bounds from [0] to
    [n]: chunk [i] owns items [b.(i) .. b.(i+1) - 1], of the size
    [chunk_sizes] gives it.  [n >= 0], [chunks >= 1]. *)
val slice_bounds : n:int -> chunks:int -> int array

(** [streams ~seed ~chunks] — the per-chunk generators of [seed]:
    [streams ~seed ~chunks i] is a fresh copy of stream [i] of
    [Rng.split_n (Rng.create seed) chunks].  Call it in the domain that
    runs chunk [i], so that domain owns the state it advances. *)
val streams : seed:int -> chunks:int -> int -> Rng.t

(** [fan_out ?pool ?chunks ~name ~n ~seed ~init ~merge body] — the stream
    rule in one call: chunk [i] runs [body ~size rng] on its share [size]
    of [n] (possibly 0) with [streams ~seed ~chunks i], and the results
    fold into [init] with [merge] in chunk order.  [chunks] is resolved
    by [resolve_chunks ?pool ?chunks name].  [body] must be safe to run
    in several domains at once on distinct generators. *)
val fan_out :
  ?pool:pool ->
  ?chunks:int ->
  name:string ->
  n:int ->
  seed:int ->
  init:'a ->
  merge:('a -> 'a -> 'a) ->
  (size:int -> Rng.t -> 'a) ->
  'a
