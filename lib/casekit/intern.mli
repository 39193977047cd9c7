(** Interning by position: an open-addressed table of positions
    [0 <= k < 2{^32}] in a caller's own arrays, under a hash and an
    equality the caller supplies.  Interning allocates no bucket per key,
    costs one hash and one probe sequence, and compares two keys only
    when their hashes agree.  [Graph] interns node ids with it, and the
    case lint interns lines by id (C001) and by normalised statement
    (C009). *)

type t

(** [create n] — an empty table sized for [n] positions; it grows to fit
    more. *)
val create : int -> t

(** [find t h matches] — the interned position [j] with hash [h] for
    which [matches j], or [-1].  [h] must be non-negative. *)
val find : t -> int -> (int -> bool) -> int

(** [intern t h matches k] — [find t h matches] when that is not [-1];
    otherwise [k], now interned under [h].  [matches] is asked only
    about positions already interned. *)
val intern : t -> int -> (int -> bool) -> int -> int

(** [span_hash s at len] — a non-negative hash of the bytes
    [s.[at..at+len)], read in place eight at a time: spans with equal
    bytes hash equal wherever they sit.  [Graph] hashes node ids with
    it, and the case lint hashes a document's ids with it, so the two
    agree on every id. *)
val span_hash : string -> int -> int -> int

(** [span_equal a i b j n] — [a.[i..i+n)] and [b.[j..j+n)] hold the same
    bytes.  Both spans must lie inside their strings. *)
val span_equal : string -> int -> string -> int -> int -> bool

(** [mix h w] and [finish h] — the steps of {!span_hash}, for callers
    that hash transformed bytes the same way (the lint's case-folded
    statements): [mix] folds one word or byte into the state, [finish]
    spreads every bit into the low ones and clears the sign. *)
val mix : int -> int -> int

val finish : int -> int
