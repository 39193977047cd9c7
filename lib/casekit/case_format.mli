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
    ([Analysis.Case_rules]): every line becomes a position-annotated
    {!raw_node} with no structural or range invariant enforced, so a checker
    can report all defects of a broken document instead of stopping at the
    first.  Only lexical faults raise {!Parse_error}. *)

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

(** [parse_raw text] — the document as a flat list of raw nodes in source
    order.  Accepts structurally broken documents (duplicate ids, dangling
    assumptions, out-of-range values, bad indentation).  A single scan of
    the text by offsets: lines split on ['\n'], blank lines and lines
    whose first non-blank character is [#] skipped.
    @raise Parse_error only on lexical faults. *)
val parse_raw : string -> raw_node list

(** {1 Strict layer}

    The strict loader builds the evaluation graph ({!Graph.t}) straight
    from the raw lines, without an intermediate {!Node.t} tree: one pass
    keeps a stack of open goals and emits each into {!Graph.Builder} when
    it closes, children first.  That is the postorder {!Graph.of_node}
    walks, so [graph text] is bit for bit [Graph.of_node (parse text)]:
    the same node indices, CSR layout, ids, evidence confidences,
    assumption-validity products (folded in document order), and hence
    the same propagated values and {!Graph.root_hash}.  The builder's id
    table is the duplicate-id check.

    A caller that needs both the lint and the graph lexes once and shares
    the raw list: [Analysis.Audit.case] and [Analysis.Check.case] hand
    one {!parse_raw} result to the rules, to {!load} and (for the audit)
    to its source locations. *)

(** Source position of every graph node: [lines.(i)] and [cols.(i)] are
    the line and column of the id token of node [i]. *)
type positions = { lines : int array; cols : int array }

(** [load raw] — the strict graph of a raw document, with each node's
    source position.  Errors are those of {!parse}, in the same order:
    an empty or indented first line, then the first duplicate id in
    document order, then the first structural or range fault.
    @raise Parse_error with position information on malformed input. *)
val load : raw_node list -> Graph.t * positions

(** [graph_of_raw raw] — [fst (load raw)]. *)
val graph_of_raw : raw_node list -> Graph.t

(** [graph text] — [graph_of_raw (parse_raw text)].
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
