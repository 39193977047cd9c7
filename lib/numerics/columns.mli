(** Unboxed float64 columns — the structure-of-arrays substrate.

    A column is a growable view over a [Bigarray.Array1] of float64
    elements in C layout: the storage the batched kernels ({!Rng},
    {!Select}, {!Summary.Online}, [Dist.sample_into_col]) can stream over
    contiguously, and the unit of persistence for snapshots.  Unlike
    [float array], a column can alias external memory ({!of_bigarray},
    {!sub_view}) and can be mapped straight from a snapshot file
    ({!load} with [~mmap:true]), which is what makes zero-copy
    constructor paths and instant daemon startup possible.

    {2 Aliasing contract}

    [of_bigarray] and [sub_view] do {e not} copy: writes through the
    column are visible through the source and vice versa.  A column
    created that way has fixed capacity — growing operations ([push],
    [append_*]) raise [Invalid_argument] instead of silently detaching
    from the shared storage.  Growable columns may reallocate on
    [push]/[append_*]; any [sub_view] or [unsafe_data] taken {e before}
    a reallocation keeps pointing at the old storage.  Take views late,
    or stop growing first.

    Columns are not thread-safe: confine one to a single domain, or
    share read-only. *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

(** [create ?capacity ()] — an empty growable column ([capacity]
    defaults to 16; 0 is allowed). *)
val create : ?capacity:int -> unit -> t

(** [make n x] — a growable column of [n] copies of [x]. *)
val make : int -> float -> t

(** [length t] — elements currently held. *)
val length : t -> int

(** [capacity t] — elements the current storage can hold without
    reallocating ([= length] for fixed-capacity columns). *)
val capacity : t -> int

(** [growable t] — whether [push]/[append_*] are permitted (false for
    {!of_bigarray} and {!sub_view} columns). *)
val growable : t -> bool

val get : t -> int -> float
val set : t -> int -> float -> unit

(** Unchecked accessors for kernel inner loops; the caller owns the
    bounds invariant ([0 <= i < length t]). *)
val unsafe_get : t -> int -> float

(** [unsafe_data t] — the backing bigarray, index 0 = element 0.  Its
    dimension is [capacity t], not [length t]: indices at or beyond
    [length t] read uninitialised storage.  Invalidated by the next
    reallocating operation on a growable column.  This is the zero-copy
    seam the batched kernels use ([Bigarray.Array1.unsafe_get] on the
    result compiles to a direct load). *)
val unsafe_data : t -> ba

(** [push t x] — append one element, growing the storage geometrically
    (amortised O(1)).  [Invalid_argument] on a fixed-capacity column. *)
val push : t -> float -> unit

(** [append_array t xs] — bulk [push]. *)
val append_array : t -> float array -> unit

(** [clear t] — set the length to 0 (storage is retained). *)
val clear : t -> unit

(** [set_length t n] — truncate or extend within capacity;
    [0 <= n <= capacity t].  Extending exposes whatever the storage
    holds — only use after writing the elements through
    {!unsafe_data}. *)
val set_length : t -> int -> unit

(** [blit ~src ~src_pos ~dst ~dst_pos ~len] — copy a range between
    columns (memmove semantics: overlapping ranges within one column are
    safe). *)
val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

(** [sub_view t ~pos ~len] — a zero-copy alias of [t.(pos ..
    pos+len-1)] (fixed capacity; see the aliasing contract above). *)
val sub_view : t -> pos:int -> len:int -> t

(** [copy t] — a fresh growable column with the same contents. *)
val copy : t -> t

(** [of_array xs] / [to_array t] — copying conversions. *)
val of_array : float array -> t

val to_array : t -> float array

(** [of_bigarray ba] — zero-copy adoption of existing storage (length =
    capacity = [Array1.dim ba]; fixed capacity). *)
val of_bigarray : ba -> t

val iter : (float -> unit) -> t -> unit
val fold_left : ('a -> float -> 'a) -> 'a -> t -> 'a

(** [mean t] / [variance t] — same definitions (and the same left-fold
    float-op order, hence bit-identical results) as {!Summary.mean} and
    {!Summary.variance} on the equivalent array. *)
val mean : t -> float

val variance : t -> float

(** [sort t] — in-place ascending sort in the [Float.compare] order
    (NaNs first; [-0.] and [0.] are compare-equal and may appear in
    either order, exactly as [Array.sort Float.compare]). *)
val sort : t -> unit

(** [quantile_sorted t p] — type-7 interpolated quantile of an
    already-sorted column; bit-identical to {!Summary.quantile_sorted}
    on the equivalent array. *)
val quantile_sorted : t -> float -> float

(** {2 Snapshots}

    A snapshot is a named set of columns in a versioned little-endian
    on-disk layout (see THEORY §9.5 for the byte-level diagram):

    {v
    magic "CFCOLSNP" | u64 version (= 1) | u64 ncols
    per column:  u64 name_len | name bytes, zero-padded to 8
               | u64 element count
    then each column's float64 data section, in declaration order
    (8-byte aligned by construction).
    v}

    All integers and float bit patterns are little-endian on disk
    regardless of host byte order; on a big-endian host [save]/[load]
    swap bytes and [~mmap:true] silently falls back to the copying
    loader (a raw mapping would misread the data). *)

(** [save path cols] — write a snapshot atomically (temp file + rename;
    the temp file lives next to [path]).  Column names must be distinct,
    non-empty, and at most 255 bytes. *)
val save : string -> (string * t) list -> unit

(** [load ?mmap path] — read a snapshot back, in declaration order.
    With [~mmap:true] each column aliases a private (copy-on-write)
    file mapping: loading is O(1) in the data size and mutations never
    write back to the file, but the columns have fixed capacity.  When
    [mmap] is omitted it defaults to the [CONFCASE_MMAP] environment
    variable ([1]/[true]/[yes] enable it), else false.

    A file that is not a snapshot — wrong magic, unsupported version,
    truncated data, or a header whose declared lengths disagree with the
    file size — raises [Failure] with a descriptive message before any
    mapping is attempted, so a corrupt snapshot can never turn into a
    fault on access. *)
val load : ?mmap:bool -> string -> (string * t) list

(** [find cols name] — the named column ([Failure] if absent): a
    convenience for consuming [load] results. *)
val find : (string * t) list -> string -> t
