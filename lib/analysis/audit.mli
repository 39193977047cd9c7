(** Semantic static analysis over the flat CSR case graph.

    Where {!Case_rules} lints a small authored document through the raw
    parse layer, [Audit] runs directly on {!Casekit.Graph}: every pass is
    one (or a bounded number of) linear sweeps over the CSR arrays, so a
    generated million-node case audits in the same representation it
    propagates in.

    Codes (stable; [confcase check --codes] prints this table):
    - [C013] error — unattainable top claim: even with every evidence
      item at the top of its attainable range and every assumption
      holding as stated, the root's best-case confidence stays below the
      required target ({!Casekit.Graph.propagate_bounds})
    - [C014] warning — vacuous leg: removing the leg cannot change its
      goal's propagated value or attainable interval (bitwise), so it
      contributes nothing to the argument under the audited dependence
      model ({!Casekit.Graph.compute_excluding})
    - [C015] warning — over-tight assumptions: the root's best case is
      below target, yet without the assumption-validity discounts it
      would reach it — the assumption budget, not the evidence, caps the
      claim
    - [C016] warning — single point of failure: one evidence node whose
      lone refutation defeats the root under the boolean abstraction
      ({!Casekit.Graph.spof_evidence}), generalising the C009
      shared-evidence smell to full dominator structure

    The structural pass re-implements the shape rules of {!Case_rules}
    (C005 single child, C007 depth, C008 fan-out, C009 shared evidence)
    as linear CSR sweeps, for graphs that never existed as text.

    {2 Soundness}

    The interval pass is an abstract interpretation of the propagation
    semantics: every combinator is monotone nondecreasing in each child
    value, so sweeping the combinator arithmetic over the lo and hi
    columns separately bounds every attainable propagation.  With point
    leaf intervals the sweep reproduces {!Casekit.Graph.propagate} bit
    for bit; the property tests pin both facts against Monte-Carlo
    ground truth across 1/2/4-domain parallel propagation. *)

(** Audit configuration. *)
type options = {
  target : float option;
      (** Required root confidence; enables C013/C015.  Default [None]. *)
  dependence : Casekit.Graph.dependence;
      (** Dependence model the semantic passes run under.  Default
          {!Casekit.Graph.Independent}. *)
  leaf_bounds : (int -> float * float) option;
      (** Attainable range of each evidence node (e.g. a belief-derived
          credible interval).  Default: worst/best case [(0, 1)]. *)
  structural : bool;
      (** Run the CSR shape lint (C005/C007/C008/C009).  Default [true];
          {!case} disables it because {!Case_rules} already covers
          authored documents with better positions. *)
  max_per_code : int;
      (** Emission cap per diagnostic code: a million-node chain of
          single points of failure must not produce a million
          diagnostics.  Findings beyond the cap are counted and
          summarised in one info diagnostic carrying a [suppressed]
          data entry.  Default 20. *)
  max_vacuity_children : int;
      (** Widest goal the C014 probe scans (the probe is quadratic in
          fan-out).  Wider goals are skipped.  Default 128. *)
}

val default_options : options

(** [(code, severity, one-line description)] for C013–C016, same shape
    as {!Case_rules.codes}. *)
val codes : (string * Diagnostic.severity * string) list

(** [lint ?options ?locate g] — the structural CSR pass only:
    C005/C007/C008/C009 as linear sweeps.  [locate i] anchors node [i]
    to a source position (line, col) when the graph came from a file;
    graph-native nodes report line 0. *)
val lint :
  ?options:options -> ?locate:(int -> (int * int) option) ->
  Casekit.Graph.t -> Diagnostic.t list

(** [graph ?options ?locate g] — the full audit: structural lint (unless
    disabled), one concrete propagation, the interval sweep
    (C013/C015 against [options.target]), the vacuous-leg probe (C014)
    and the single-point-of-failure pass (C016).  Mutates the graph's
    value column (it propagates under [options.dependence]) but restores
    any probe edits bitwise. *)
val graph :
  ?options:options -> ?locate:(int -> (int * int) option) ->
  Casekit.Graph.t -> Diagnostic.t list

(** [case ?file ?options text] — audit an authored case document: the
    {!Case_rules} lint (as [confcase check] would report it), plus — when
    the strict loader accepts the document — the semantic graph passes
    anchored to each node's source position.  The document is lexed
    once: the rules, {!Casekit.Case_format.load} and the positions share
    one raw list.  Returns the combined, sorted diagnostic list. *)
val case : ?file:string -> ?options:options -> string -> Diagnostic.t list
