(** Sort-free order statistics over {!Columns.t} storage.

    Selection is expected O(n) (Floyd–Rivest, with a quickselect fallback
    behaviour on small windows), against O(n log n) for sorting — the basis
    of one-off quantiles over large Monte-Carlo sample sets.

    Ordering contract: every function below selects with respect to the
    {e same order} as [Array.sort Float.compare] — NaNs sort below every
    other value (and compare equal to each other) — so the k-th element
    returned here compares equal ([Float.compare] = 0) to the value that
    would occupy index [k] after sorting, and is bitwise that value
    except for one unobservable-by-comparison case: [Float.compare]
    treats [-0.] and [0.] as equal, so when the data mixes zero signs the
    sign at index [k] is pinned down neither by the sort (heapsort places
    compare-equal elements arbitrarily) nor by selection.  That is what
    lets the sort-free quantile in {!Summary} replace the sorting one
    without changing a single reproduced number. *)

(** [nth_in_place_col col k] — the k-th smallest element
    ([0 <= k < length col]) under the [Float.compare] order, over the
    first [length] elements of [col].  Partially reorders [col] in place:
    on return element [k] holds the result, everything left of [k] is
    [<=] it and everything right of [k] is [>=] it (a multiset-preserving
    partition — the column holds the same values, rearranged).  Expected
    O(n).  [Dist.Empirical], [Summary.quantile_unsorted] and the
    population medians all select through here. *)
val nth_in_place_col : Columns.t -> int -> float

(** [quantile_in_place_col col p] — type-7 (linear interpolation)
    quantile, [0 <= p <= 1], bit-identical to [Summary.quantile] on
    [Columns.to_array col] (up to the zero-sign caveat above) but
    expected O(n) instead of O(n log n).  Partially reorders [col] in
    place (multiset preserved), so repeated calls on the same scratch
    column get cheaper as it becomes progressively more ordered. *)
val quantile_in_place_col : Columns.t -> float -> float
