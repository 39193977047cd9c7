(** Static well-formedness rules for case documents ({!Casekit.Case_format}).

    Codes (stable; [confcase check --codes] prints this table):
    - [C000] error — document does not lex; nothing can be analysed
    - [C001] error — duplicate node id
    - [C002] error — confidence / validity probability outside (0,1]
    - [C003] warning — confidence / validity probability of exactly 1.0
      (overclaimed certainty: the paper's position is that doubt never
      vanishes)
    - [C004] error — goal with no supporting children
    - [C005] warning — goal with a single child (vacuous [any] leg, or pure
      indirection under [all])
    - [C006] error — assumption attached to no goal
    - [C007] warning — argument deeper than {!max_depth} levels
    - [C008] warning — goal with more than {!max_fan_out} children
    - [C009] warning — legs of an [any] goal share evidence (matched by
      normalised statement text), breaking the independence that multi-leg
      composition relies on (paper Section 4.2)
    - [C010] error — indentation fault (level jump, or indented root)
    - [C011] error — multiple root nodes
    - [C012] error — evidence given children *)

val max_depth : int
val max_fan_out : int

(** [(code, severity, one-line description)] for every rule above. *)
val codes : (string * Diagnostic.severity * string) list

(** [check_lexed raw] — run every rule over a lexed document, sorted by
    position.  Never raises: the raw layer admits broken documents by
    design.  Reads ids and statements in place; only a diagnostic's
    message copies an id out. *)
val check_lexed : Casekit.Case_format.Raw.t -> Diagnostic.t list

(** [check_raw nodes] — [check_lexed] over the columns of a raw list
    ({!Casekit.Case_format.Raw.of_nodes}). *)
val check_raw : Casekit.Case_format.raw_node list -> Diagnostic.t list

(** [statement_hash s] — a hash of C009's normalised statement,
    [String.lowercase_ascii (String.trim s)], computed without the copy,
    eight bytes at a time: equal normalised statements hash equal. *)
val statement_hash : string -> int

(** [same_statement a b] — [normalise a = normalise b] for C009's
    normalisation, compared in place (blanks skipped, ASCII case
    folded byte by byte). *)
val same_statement : string -> string -> bool

(** [lex text] — [Casekit.Case_format.lex text], or the [C000]
    diagnostic [check] reports when the document does not lex or is
    empty.  For callers that share one lexed document between
    {!check_lexed} and the strict loader. *)
val lex :
  string -> (Casekit.Case_format.Raw.t, Diagnostic.t list) result

(** [check text] — [lex] + {!check_lexed}; lexical faults become a
    single [C000] diagnostic (and an empty document is [C000] at line 0). *)
val check : string -> Diagnostic.t list
