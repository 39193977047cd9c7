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
