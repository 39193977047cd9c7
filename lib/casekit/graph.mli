(** Flat, cache-friendly case graphs for million-node propagation.

    {!Node.t} is the right representation for authoring and rendering a
    case, but it is a boxed tree: propagation walks pointers, re-deriving
    everything on every query, and evidence shared between legs has to be
    duplicated.  [Graph.t] is the evaluation representation: nodes are
    dense [int] indices, child and parent adjacency are CSR arrays,
    per-node kind tags live in a byte string, ids and statements are
    spans into one string (a loaded graph's own document), and
    confidences /
    assumption-validity products / computed values live in unboxed
    {!Numerics.Columns} float64 columns.  It is a true DAG — one evidence
    node may be [supported_by] several legs — with {!of_node}/{!to_node}
    bridges that are semantics-preserving on trees.

    {2 Index invariant}

    Node indices are assigned in construction order and children always
    precede parents, so ascending index order {e is} a topological order.
    Every kernel below — full propagation, the level schedule, the
    incremental dirty frontier — leans on that single invariant.

    {2 Bit-identity contract}

    Each goal's value is one left-to-right fold over its children in
    emission order ({!combine}), so on a tree [propagate dep (of_node t)]
    returns exactly the bits of the textbook recursive evaluation — the
    [List]-fold tree evaluator the test suite keeps as its oracle — for
    every dependence model.  {!propagate_par} computes every node from the
    same inputs as the sequential kernel (levels only order the schedule,
    writes are disjoint), so it is bit-identical at any domain count.

    {2 Shared-evidence discount}

    On a DAG, evidence reachable from more than one leg of an [Any] goal
    breaks the independence the multi-leg argument relies on (the C009
    smell).  At build time each such goal gets an overlap fraction —
    distinct evidence items cited by two or more legs over distinct
    evidence items under the goal — and under [Correlated rho] the goal
    is combined at [max rho overlap]: the static warning becomes a
    quantitative penalty.  On trees the overlap is 0 and the discount
    vanishes, preserving the bit-identity contract. *)

type dependence =
  | Independent
  | Frechet_lower  (** Worst-case joint behaviour. *)
  | Frechet_upper  (** Best-case joint behaviour. *)
  | Correlated of float
      (** [Correlated rho], rho in [0,1]: blend between the independent
          (rho = 0) and comonotone (rho = 1) values; on goals with
          shared-evidence overlap the effective rho is floored at the
          overlap fraction. *)

(** [dependence_of_string s] — the model named by [s]: [independent],
    [frechet-lower], [frechet-upper], or a correlation rho in [0,1]
    written as a float ([Correlated rho]).  [None] for anything else,
    including a rho outside [0,1] or [nan]. *)
val dependence_of_string : string -> dependence option

type t

type kind = Evidence | All_goal | Any_goal

(** {1 Construction} *)

module Builder : sig
  (** Streaming construction: emit children before parents, get their
      indices back, wire them into goals.  A million-node case never
      materialises as boxed {!Node.t} values.  A builder is consumed by
      {!build}; using it afterwards is unspecified. *)

  type b

  (** [create ?capacity ?ids ()] — [capacity] pre-sizes the node
      columns; [ids] (default 64) pre-sizes the table that interns node
      and assumption ids.  The two are separate hints on purpose: a
      loader of 10^5 named nodes passes its line count so the table never
      rehashes, while a generated graph of anonymous nodes interns
      nothing and keeps the small default.  The table grows to fit
      either way, and the graph keeps it. *)
  val create : ?capacity:int -> ?ids:int -> unit -> b

  (** [evidence b ?id ?statement ~confidence ()] — new leaf, confidence
      in (0,1].  [id] defaults to [""] (anonymous: not interned, not
      addressable by name — cheap for generated graphs). *)
  val evidence :
    b -> ?id:string -> ?statement:string -> confidence:float -> unit -> int

  (** [goal b ?id ?statement ?assumptions ?pos ?len ~combinator
      children] — new goal over the existing node indices
      [children.(pos) .. children.(pos+len-1)] (default: all of them;
      children must already have been emitted, which is what makes index
      order topological).  A caller emitting many goals can fill one
      reused array and pass a slice of it.  Children may be shared with
      other goals — that is how DAGs are built.
      @raise Invalid_argument on empty children, out-of-range indices,
      p_valid outside (0,1], or duplicate interned ids. *)
  val goal :
    b ->
    ?id:string ->
    ?statement:string ->
    ?assumptions:Node.assumption list ->
    ?pos:int ->
    ?len:int ->
    combinator:Node.combinator ->
    int array ->
    int

  (** {2 Loading text}

      The entry points a case-file loader ({!Case_format}) builds
      through.  Ids and statements are spans [text.[at..at+len)] of the
      builder's document [text], which the graph keeps as its text:
      nothing is copied and no string is made per node.  [key] names
      the id's position in a preset id table (see {!of_text}); without
      one it is ignored and the id is interned, in place, as
      {!evidence}/{!goal} would intern it. *)

  (** [of_text ~capacity ?table text] — a builder for the document
      [text], of at most [capacity] nodes.  [table], when given, is the
      document's id table [(table, at, len)]: position [k] of [table] is
      the id [text.[at.(k)..at.(k)+len.(k))], and the positions are the
      [key]s of every id the load will name, all distinct.  The builder
      records each id at its key instead of interning it again, and the
      graph keeps [table] and its two span columns as its own.  Such a
      builder takes ids only through {!evidence_span} and {!goal_span}
      with their keys; any other id raises [Invalid_argument].  Without
      [table], the document's ids are interned by {!build}, in one pass,
      which raises [Invalid_argument] on a duplicate.  Text given to
      {!evidence}/{!goal} is appended to a copy of [text]. *)
  val of_text :
    capacity:int -> ?table:Intern.t * int array * int array -> string -> b

  (** [evidence_span b ~key ~id ~id_len ~statement ~statement_len
      ~confidence] — {!evidence} with the id [text.[id..id+id_len)] and
      the statement [text.[statement..statement+statement_len)] of the
      builder's document. *)
  val evidence_span :
    b ->
    key:int ->
    id:int ->
    id_len:int ->
    statement:int ->
    statement_len:int ->
    confidence:float ->
    int

  (** [goal_span b ~key ~id ~id_len ~statement ~statement_len
      ~assumptions ~keys ~assumption_ids ~combinator kids ~pos ~len] —
      {!goal} over the children [kids.(pos) .. kids.(pos+len-1)], with
      its id and statement spans of the document; [keys] lists each
      assumption's key, in the order of [assumptions] (or is [[]]
      without a preset table), and [assumption_ids] the offset of each
      assumption's id [aid] in the document (an id given no offset is
      appended to the text). *)
  val goal_span :
    b ->
    key:int ->
    id:int ->
    id_len:int ->
    statement:int ->
    statement_len:int ->
    assumptions:Node.assumption list ->
    keys:int list ->
    assumption_ids:int list ->
    combinator:Node.combinator ->
    int array ->
    pos:int ->
    len:int ->
    int

  (** [build b ~root] — freeze into a graph.  The builder's columns
      become the graph's, uncopied.  Each node's level and a parent
      count stopped at 2 were recorded as it was emitted, so [build]
      knows the height and whether the graph is a tree without a pass;
      it derives the shared-evidence overlap fractions only when some
      node has two parents.  The parent CSR, the level schedule, the
      dirty maps and the hash column are built on first use. *)
  val build : b -> root:int -> t
end

(** [of_node t] — bridge a boxed case tree into a graph (iterative: safe
    on 10^5-deep chains).  Node and assumption ids are interned; duplicate
    ids raise [Invalid_argument] as {!Node.validate} would. *)
val of_node : Node.t -> t

(** [to_node t] — bridge back to a boxed tree.  [to_node (of_node t) = t]
    structurally.
    @raise Invalid_argument if the graph is not a tree (some node has
    more than one parent): a DAG has no faithful tree rendering. *)
val to_node : t -> Node.t

(** {1 Propagation} *)

(** [propagate dep t] — one pass in index (= topological) order; returns
    the root value.  Also the baseline for {!refresh}: it clears every
    dirty flag and records [dep]. *)
val propagate : dependence -> t -> float

(** [propagate_par ~pool ?chunks dep t] — level-wise parallel propagation
    over the domain pool: nodes at the same level have no edges between
    them, so each level is split into [chunks] near-equal slices
    ({!Numerics.Parallel.slice_bounds}) evaluated concurrently.  Every
    node is computed from exactly the same inputs as in {!propagate},
    so the result is bit-identical to the sequential kernel at any
    domain count.  Small levels run inline. *)
val propagate_par :
  pool:Numerics.Parallel.pool -> ?chunks:int -> dependence -> t -> float

(** {1 Incremental edits}

    The invalidation invariant: a node's value is stale iff it is marked
    dirty, and every ancestor of a changed node is marked before
    {!refresh} returns.  Edits mark; [refresh] pops dirty nodes in
    ascending index order (a min-heap — children before parents, again
    the index invariant), recomputes each, and only propagates to parents
    when the recomputed bits actually changed — an edit whose effect dies
    out (e.g. under a [min]) stops early. *)

(** [set_evidence t i c] — stage a new confidence (in (0,1]) for evidence
    node [i] and mark its ancestor cone dirty.
    @raise Invalid_argument if [i] is not an evidence node or [c] is out
    of range. *)
val set_evidence : t -> int -> float -> unit

(** [set_assumption t ~id ~p_valid] — stage a new validity for the
    assumption with interned id [id].
    @raise Not_found if no assumption has that id. *)
val set_assumption : t -> id:string -> p_valid:float -> unit

(** [refresh dep t] — re-propagate only the dirty frontier and return the
    root value.  Falls back to a full {!propagate} when [dep] differs
    from the model the current values were computed under (or none was).
    After [refresh], [value t i] agrees bitwise with a full [propagate]
    for every node [i]. *)
val refresh : dependence -> t -> float

(** [invalidate t] — forget which dependence model the value column was
    computed under, so the next {!refresh} runs a full {!propagate}.
    The cold-path lever: benchmarks and the serve [flush] request use it
    to force an uncached evaluation without rebuilding the graph. *)
val invalidate : t -> unit

(** {1 Content-addressed structural hashing}

    [structural_hash t i] is a leaf-up 64-bit hash of the sub-case rooted
    at [i], stored as one more unboxed column (int64 bits): an evidence
    node hashes its confidence bits; a goal hashes its combinator tag,
    assumption-validity product, shared-evidence overlap fraction, and
    its children's hashes in emission order.  Ids and statements are
    excluded, so two sub-cases that would propagate identically under
    every dependence model hash equal — the hash is a sound
    content-address for memoising evaluation results ([confcase serve]
    keys its cache on [(structural_hash, dependence_hash)]).

    Maintenance mirrors the value column: the first query pays one full
    leaf-up pass; {!set_evidence}/{!set_assumption} mark a second dirty
    frontier, and later queries re-hash only the edited cone with the
    same bitwise early cutoff as {!refresh} (an edit reverted to the
    previous value stops at the leaf, restoring the previous hash — and
    with it any memoised results for that state). *)

val structural_hash : t -> int -> int64
(** @raise Invalid_argument if [i] is out of range. *)

(** [root_hash t] — [structural_hash t (root t)]. *)
val root_hash : t -> int64

(** [dependence_hash dep] — 64-bit tag of the dependence model (bitwise
    on [rho]), mixed into memo keys so the same structure evaluated
    under two models never collides. *)
val dependence_hash : dependence -> int64

(** {1 Static-analysis kernels}

    The semantic audit passes ([Analysis.Audit]) run directly on the CSR
    representation; these are their graph-side kernels. *)

(** [propagate_bounds ?leaf_bounds ?with_assumptions dep t] — interval
    abstract interpretation in one topological sweep: per-node attainable
    confidence bounds [(lo, hi)] as two fresh columns.  [leaf_bounds i]
    supplies the attainable range of evidence node [i] (default
    [(0.0, 1.0)], the belief-free worst/best case; must satisfy
    [0 <= lo <= hi <= 1]).  Every combinator is monotone nondecreasing in
    each child value, so running the concrete arithmetic over the lo and
    hi columns separately yields sound bounds — and with point leaf
    intervals [(base, base)] both columns reproduce {!propagate}'s value
    bit for bit at every node.  [with_assumptions:false] skips the
    assumption-validity products (the C015 probe: what the argument
    could reach if every assumption held surely).  Does not disturb the
    graph's value column or dirty state.
    @raise Invalid_argument on malformed [dep] or leaf bounds. *)
val propagate_bounds :
  ?leaf_bounds:(int -> float * float) ->
  ?with_assumptions:bool ->
  dependence ->
  t ->
  Numerics.Columns.t * Numerics.Columns.t

(** [combine ?skip dep t i values] — goal [i]'s children, read from the
    column [values], folded under [dep] and its combinator: the value
    {!propagate} stores at [i] before the assumption-validity product.
    {!propagate}, {!refresh} and {!propagate_bounds} run this same fold
    per (combinator, model).  [~skip:k] leaves the [k]-th child (0-based
    position) out — what the vacuous-leg probe {!leg_is_inert} folds:
    when the result times {!assumption_validity} is bitwise equal to the
    stored value, removing that leg cannot change the node, and by
    monotonicity cannot change the root.  Shared-evidence overlap
    fractions are structural and held fixed.
    @raise Invalid_argument if [i] is not a goal, [skip] is out of range,
    [values] is shorter than the graph, or [dep] is malformed. *)
val combine :
  ?skip:int -> dependence -> t -> int -> Numerics.Columns.t -> float

(** [leg_is_inert dep t i k values] — [combine ~skip:k dep t i values]
    times {!assumption_validity} is bitwise equal to [values]'s entry
    [i]: the vacuous-leg probe, as one call that boxes nothing.
    @raise Invalid_argument as {!combine} does. *)
val leg_is_inert : dependence -> t -> int -> int -> Numerics.Columns.t -> bool

(** [spof_evidence t] — indices (ascending) of every evidence node whose
    lone refutation defeats the root under the boolean abstraction:
    kill(evidence e) = [{e}], kill(All) = union of children's kill sets,
    kill(Any) = intersection.  One bottom-up pass over sorted index
    arrays; on a tree the legs of an [Any] goal are disjoint so only
    all-conjunctive paths yield single points of failure — DAG sharing
    is what defeats a multi-leg argument on one item. *)
val spof_evidence : t -> int array

(** {1 Inspection} *)

val size : t -> int
val edge_count : t -> int
val root : t -> int

(** [levels t] — height of the level schedule (1 for a single leaf). *)
val levels : t -> int

val kind_of : t -> int -> kind

(** Node text lives in one string per graph (a loaded graph's own
    document): ids and statements are spans into it, and these copy a
    node's span out on demand. *)

(** [id_of t i] — the interned id, or [""] for anonymous nodes. *)
val id_of : t -> int -> string

(** [statement_of t i] — node [i]'s statement ([""] when none was
    given). *)
val statement_of : t -> int -> string

(** [find t id] — index of the node with interned id [id]. *)
val find : t -> string -> int option

(** [value t i] — the value computed by the last propagate/refresh. *)
val value : t -> int -> float

(** [base_confidence t i] — current confidence of evidence node [i]. *)
val base_confidence : t -> int -> float

(** [children t i] / [child_count t i] / [parents t i] /
    [parent_count t i] — adjacency probes. *)
val children : t -> int -> int array

val child_count : t -> int -> int
val parents : t -> int -> int array
val parent_count : t -> int -> int

(** [values t] — the live value column written by {!propagate} /
    {!refresh} (the same storage [value] reads).  Read-only by
    convention: it exists so analysis passes can hand the concrete
    values to {!combine} without copying a million-entry column. *)
val values : t -> Numerics.Columns.t

(** [assumption_validity t i] — the assumption-validity product applied
    at node [i] (1 for evidence and assumption-free goals). *)
val assumption_validity : t -> int -> float

(** [evidence_indices t] — all evidence nodes, ascending. *)
val evidence_indices : t -> int array

(** [is_tree t] — no node has more than one parent. *)
val is_tree : t -> bool

(** [overlap_fraction t i] — the shared-evidence overlap of goal [i]
    (0 everywhere on trees and on non-[Any] goals). *)
val overlap_fraction : t -> int -> float

(** [max_overlap t] — the largest overlap fraction in the graph. *)
val max_overlap : t -> float

(** {1 Sensitivity rankings}

    Both rankings answer the ACARP question "which input is worth
    strengthening?" with central differences of the root value.  Each
    probe edits one input through the incremental engine and puts it
    back, so a ranking costs O(edges touched), not O(n * inputs); the
    graph's inputs are left as they were, and its value column holds a
    propagation under [dep]. *)

(** [leaf_sensitivities dep t] — for each evidence node, in index order,
    its id and the derivative of the root value with respect to its
    confidence. *)
val leaf_sensitivities : dependence -> t -> (string * float) list

(** [assumption_sensitivities dep t] — the same for each assumption's
    validity, in preorder from the root: each goal's assumptions ahead of
    its children's. *)
val assumption_sensitivities : dependence -> t -> (string * float) list
