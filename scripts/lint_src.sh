#!/bin/sh
# Source lint for lib/: ban polymorphic compare where it bites.
#
# PR 2 fixed a real bug where `Array.sort compare` on a float array went
# through the polymorphic comparator (slow, and wrong the day a nan
# appears); this script keeps the class of bug from regressing.
#
#   1. Polymorphic comparators handed to sorts: `Array.sort compare`,
#      `List.sort Stdlib.compare`, ... — use Float.compare /
#      String.compare / a dedicated comparator.
#   2. Any remaining `Stdlib.compare` in lib/ hot paths.
#   3. `floatarray` / `Float.Array` in lib/: batches live in Columns, and
#      every batched kernel exists once, over Columns.  The one seam that
#      keeps a floatarray is the QMC point vector (Sobol.next and the
#      Mc.estimate_qmc callback take one point of `dim` coordinates, not
#      a batch).
#   4. `Array.sort Float.compare` (or stable_sort/fast_sort) in lib/: the
#      one float sort is Columns.sort, in place and unboxed, in the same
#      order; the polymorphic sort boxes both operands of every compare.
#   5. `float_of_string` / `float_of_string_opt` in lib/ outside
#      lib/numerics/decimal.ml: every text format reads numbers through
#      Numerics.Decimal, which returns float_of_string's bits without
#      copying the token and falls back to it for unusual spellings.
#   6. `Rng.split_n` / `Parallel.default_chunks` in lib/ outside
#      lib/numerics/: every parallel entry point resolves its chunk count
#      and splits its seed through Numerics.Parallel (resolve_chunks,
#      streams, fan_out), so the stream rule has one home.
#
# A line can be exempted from rules 1-2 with a trailing
# `(* lint: allow-poly-compare *)`, and from rule 3 with
# `(* lint: allow-floatarray *)`.

set -u
fail=0

allow='lint: allow-poly-compare'

hits=$(grep -rn --include='*.ml' -E \
  '(Array|List)\.(sort|stable_sort|fast_sort)[[:space:]]+(Stdlib\.)?compare' \
  lib/ | grep -v "$allow")
if [ -n "$hits" ]; then
  echo "lint-src: polymorphic comparator passed to a sort:" >&2
  echo "$hits" >&2
  echo "  use Float.compare / Int.compare / String.compare instead" >&2
  fail=1
fi

hits=$(grep -rn --include='*.ml' 'Stdlib\.compare' lib/ | grep -v "$allow")
if [ -n "$hits" ]; then
  echo "lint-src: Stdlib.compare in lib/ (polymorphic compare in a hot path):" >&2
  echo "$hits" >&2
  echo "  use a monomorphic comparator instead" >&2
  fail=1
fi

hits=$(grep -rn --include='*.ml' -E 'floatarray|Float\.Array' lib/ |
  grep -v 'lint: allow-floatarray')
if [ -n "$hits" ]; then
  echo "lint-src: floatarray in lib/ (batches are Columns):" >&2
  echo "$hits" >&2
  echo "  use a Columns kernel; only the QMC point seam is exempt" >&2
  fail=1
fi

hits=$(grep -rn --include='*.ml' -E \
  'Array\.(sort|stable_sort|fast_sort)[[:space:]]+(Stdlib\.)?Float\.compare' \
  lib/)
if [ -n "$hits" ]; then
  echo "lint-src: float array sorted with Float.compare in lib/:" >&2
  echo "$hits" >&2
  echo "  sort a column copy with Columns.sort instead" >&2
  fail=1
fi

hits=$(grep -rn --include='*.ml' 'float_of_string' lib/ |
  grep -v '^lib/numerics/decimal\.ml:')
if [ -n "$hits" ]; then
  echo "lint-src: float_of_string in lib/ outside Numerics.Decimal:" >&2
  echo "$hits" >&2
  echo "  read numbers with Numerics.Decimal.of_span / of_string(_opt)" >&2
  fail=1
fi

hits=$(grep -rn --include='*.ml' -E 'split_n|default_chunks' lib/ |
  grep -v '^lib/numerics/')
if [ -n "$hits" ]; then
  echo "lint-src: hand-written fan-out in lib/ outside Numerics.Parallel:" >&2
  echo "$hits" >&2
  echo "  use Parallel.resolve_chunks / Parallel.streams / Parallel.fan_out" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "lint-src: clean"
fi
exit "$fail"
