(** Exact decimal-to-float64 reading: the one reader behind every text
    format (case files, belief files, the NDJSON protocol, dependence
    names).

    [of_span s at len] returns the bits [float_of_string (String.sub s at
    len)] returns, and raises [Failure] exactly when that call does, but
    reads the token in place.  Plain spellings — an optional sign, digits
    with an optional point, an optional exponent, at most 19 significant
    digits — are converted here: by Clinger's exact product or quotient
    when the significand is at most 2^53 and the decimal exponent at most
    22 in magnitude, and otherwise by the Eisel–Lemire algorithm over a
    static table of 128-bit powers of five (Lemire, "Number Parsing at a
    Gigabyte per Second", 2021; Mushtak & Lemire, "Fast number parsing
    without fallback", 2023, prove a 19-digit significand never needs
    one).  Every other spelling (underscores, hexadecimal, [inf]/[nan],
    more than 19 significant digits, blanks, an exponent longer than the
    reader accumulates, or text that is no number at all) is handed to
    [float_of_string] on a copy, so the two readers agree on every input
    by construction there. *)

(** [of_span s at len] — the float spelled by [s.[at..at+len)].
    @raise Failure when [float_of_string] would.
    @raise Invalid_argument if the span is not inside [s]. *)
val of_span : string -> int -> int -> float

(** [of_string s] = [of_span s 0 (String.length s)]. *)
val of_string : string -> float

(** [of_string_opt s] — [Some (of_string s)], or [None] where that
    raises [Failure]. *)
val of_string_opt : string -> float option
