(** File-level driver for the static analyser: decide what a document is,
    run the matching rule set, and (for library users) parse and check in a
    single call. *)

type kind = Case | Belief

val kind_to_string : kind -> string

(** [kind_of_path path] — from the [.case] / [.belief] extension. *)
val kind_of_path : string -> kind option

(** [sniff text] — guess the kind from the first meaningful line (a
    case document starts with [goal]/[evidence]/[assume]). *)
val sniff : string -> kind

(** [check_string ?file kind text] — the matching rule set, with [file]
    attached to every diagnostic. *)
val check_string : ?file:string -> kind -> string -> Diagnostic.t list

(** [check_file path] — read, classify (extension, then {!sniff}) and
    check.  An unreadable file yields a single [F000] error diagnostic
    rather than raising, so one bad path does not abort a multi-file
    check run. *)
val check_file : string -> Diagnostic.t list

(** Parse-and-check result: [value] is the strictly-parsed document when
    the parser accepts it, [None] otherwise; [diagnostics] come from the
    lenient rule sets either way (so a rejected document still explains
    everything that is wrong with it, and an accepted one still surfaces
    its warnings). *)
type 'a checked = { value : 'a option; diagnostics : Diagnostic.t list }

(** [case text] — [Casekit.Case_format.parse] + {!Case_rules.check} in one
    call, lexing the document once. *)
val case : ?file:string -> string -> Casekit.Node.t checked

(** [belief text] — [Elicit.Belief_format.parse] + {!Belief_rules.check} in
    one call. *)
val belief : ?file:string -> string -> Dist.Mixture.t checked

(** The rendered code table ([confcase check --codes]). *)
val codes_table : unit -> string
