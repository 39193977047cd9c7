(** A minimal text format for dependability cases, so cases can live in
    version control next to the system they argue about.

    Indentation-structured, two spaces per level:

    {v
goal G0 "Shutdown system pfd < 1e-3" any
  assume A0 "Demand profile is right" 0.97
  goal G1 "Testing leg" all
    evidence E1 "4600 failure-free demands" 0.99
    evidence E2 "Oracle validated" 0.97
  evidence E3 "Static analysis clean" 0.9
    v}

    Node kinds: [goal ID "statement" all|any], [evidence ID "statement"
    CONF], [assume ID "statement" P_VALID] (assumptions attach to the
    enclosing goal).  Blank lines and [#]-comments are ignored. *)

(** Raised on malformed input.  [line] and [col] are 1-based; [token] is the
    offending token when one can be isolated (and [""] otherwise).

    The historical payload was [{ line; message }]; the record has gained
    [col] and [token] fields, so matches that bind fields by name — the only
    shape the old interface supported — keep working unchanged. *)
exception
  Parse_error of { line : int; col : int; token : string; message : string }

(** {1 Raw layer}

    The lenient tokenised form consumed by the static analyser
    ([Analysis.Case_rules]): every node line is lexed into columns
    ({!Raw}) with no structural or range invariant enforced, so a checker
    can report all defects of a broken document instead of stopping at the
    first.  Only lexical faults raise {!Parse_error}.  A {!raw_node} is
    the record view of one line. *)

type raw_item =
  | Raw_goal of { combinator : Node.combinator }
  | Raw_evidence of { confidence : float }
  | Raw_assume of { p_valid : float }

type raw_node = {
  line : int;  (** 1-based source line. *)
  indent : int;  (** Indentation level (two spaces per level). *)
  id : string;
  id_col : int;  (** 1-based column of the id token. *)
  statement : string;
  value_col : int;
      (** Column of the trailing confidence / p_valid / combinator token
          (the id column when there is none). *)
  item : raw_item;
}

(** [is_blank c] — [c] is one of the characters [String.trim] strips:
    space, tab, newline, carriage return, form feed.  A line of only
    these is blank. *)
val is_blank : char -> bool

(** The lexer's offset scans, shared with the lint and the file sniffer
    so that they skip and trim exactly as the lexer does, without
    copying.  [skip_blanks s stop j] — the first offset in [j, stop)
    that is not blank, or [stop].  [trim_end s start j] — [j] moved left
    past the blanks that end [s.[start..j)].  [line_end s len j] — the
    offset of the first newline at or after [j], or [len]. *)
val skip_blanks : string -> int -> int -> int

val trim_end : string -> int -> int -> int
val line_end : string -> int -> int -> int

(** [is_node_line s start stop] — the line [s.[start..stop)] is read as
    a node: it is not blank and its first non-blank character is not
    [#]. *)
val is_node_line : string -> int -> int -> bool

(** {2 Columns}

    The one lexer reads each line into a reused row and copies it into
    columns: no record, list cell or string per line.  Ids and
    statements stay in the text as (offset, length) spans. *)

module Raw : sig
  type kind = All_goal | Any_goal | Evidence | Assume

  (** A lexed document: line [k] (0-based, in document order, blank and
      comment lines skipped) has each field of a {!raw_node} in a
      column. *)
  type t

  (** [lex text] — the columns of a document.  Accepts structurally
      broken documents (duplicate ids, dangling assumptions,
      out-of-range values, bad indentation).  A single scan of the text
      by offsets: lines split on ['\n'], blank lines and lines whose
      first non-blank character is [#] skipped.
      @raise Parse_error only on lexical faults. *)
  val lex : string -> t

  val length : t -> int

  (** [text t] — the document the spans point into. *)
  val text : t -> string

  val kind : t -> int -> kind
  val line : t -> int -> int
  val indent : t -> int -> int

  (** [id_at t k], [id_len t k] — the span of line [k]'s id in
      [text t]; [statement_at], [statement_len] likewise. *)
  val id_at : t -> int -> int

  val id_len : t -> int -> int
  val statement_at : t -> int -> int
  val statement_len : t -> int -> int
  val id_col : t -> int -> int
  val value_col : t -> int -> int

  (** [value t k] — the confidence or validity of an evidence or
      assumption line (0 for a goal). *)
  val value : t -> int -> float

  (** [id t k], [statement t k] — copies of the spans. *)
  val id : t -> int -> string

  val statement : t -> int -> string

  (** [first_ids t] — [first.(k)] is the first line whose id equals line
      [k]'s ([k] when none earlier does).  Computed once per document
      and kept: the duplicate-id rule and {!load} share it, and the
      graph {!load} builds keeps the table behind it as its id index. *)
  val first_ids : t -> int array

  (** [node t k] — line [k] as a {!raw_node}. *)
  val node : t -> int -> raw_node

  (** [to_nodes t] — every line as a {!raw_node}, in order. *)
  val to_nodes : t -> raw_node list

  (** [of_nodes nodes] — the columns of a raw list; [to_nodes (of_nodes
      l)] is [l]. *)
  val of_nodes : raw_node list -> t
end

(** [lex text] — {!Raw.lex}. *)
val lex : string -> Raw.t

(** [parse_raw text] — [Raw.to_nodes (lex text)]: the document as a flat
    list of raw nodes in source order.
    @raise Parse_error only on lexical faults. *)
val parse_raw : string -> raw_node list

(** {1 Strict layer}

    The strict loader builds the evaluation graph ({!Graph.t}) straight
    from the lexed rows, without an intermediate {!Node.t} tree: one
    pass keeps a stack of open goals and emits each into {!Graph.Builder}
    when it closes, children first.  That is the postorder
    {!Graph.of_node} walks, so [graph text] is bit for bit
    [Graph.of_node (parse text)]: the same node indices, CSR layout,
    ids, evidence confidences, assumption-validity products (folded in
    document order), and hence the same propagated values and
    {!Graph.root_hash}.  Ids and statements go from the text into the
    graph's byte arena as spans.

    A caller that needs both the lint and the graph lexes once and shares
    the columns: [Analysis.Audit.case] and [Analysis.Check.case] hand one
    {!lex} result to the rules, to {!load} and (for the audit) to its
    source locations, and the duplicate-id rule and the loader share one
    id table ({!Raw.first_ids}).  A caller that needs only the graph uses
    {!graph}, which feeds each lexed row straight to the loader and never
    builds the columns. *)

(** Source position of every graph node: for [i < Graph.size g],
    [lines.(i)] and [cols.(i)] are the line and column of the id token of
    node [i].  The arrays may be longer (they are sized by the document's
    lines, assumptions included); entries past the graph are
    unspecified. *)
type positions = { lines : int array; cols : int array }

(** [load raw] — the strict graph of a lexed document, with each node's
    source position.  Errors come in a fixed order: an indented first
    line, then the first duplicate id in document order, then the first
    structural or range fault (an empty document is "empty case").
    @raise Parse_error with position information on malformed input. *)
val load : Raw.t -> Graph.t * positions

(** [graph_of_raw raw] — [fst (load raw)]. *)
val graph_of_raw : Raw.t -> Graph.t

(** [graph text] — [graph_of_raw (lex text)], streamed: each line goes
    to the loader as it is lexed, so no columns are built and no
    positions are recorded.  On any fault it reruns [load (lex text)]
    for the error, so errors and their order (lexical first, then
    duplicate id, then structural) are {!load}'s.
    @raise Parse_error with position information on malformed input. *)
val graph : string -> Graph.t

(** [parse text] — the root node: [Graph.to_node (graph text)].
    @raise Parse_error with position information on malformed input. *)
val parse : string -> Node.t

(** [print node] — render back to the format; [parse (print n)] is [n].
    @raise Invalid_argument naming the node when the document could not
    be read back: an id that is empty or contains whitespace, or a
    statement that contains a double quote or a line break. *)
val print : Node.t -> string
