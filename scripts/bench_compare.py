#!/usr/bin/env python3
"""Compare bench.json (written by `make bench-json`) with BENCH_9.json.

Rows are matched by name (VR rows by name and method) and diffed on
``nanos_per_run``.  The bench writes one fixed schema whose rows are
added and never renamed, so only rows present in both files are
compared; the rest are listed informationally.  Older files kept some
rows under ``graph.rows`` and ``serve.rows``; those are read too.

A row that got more than THRESHOLD slower is flagged as a regression;
more than THRESHOLD faster is reported as an improvement.  Exit status is
0 unless ``--strict`` is given, in which case any flagged regression
exits 1 (CI runs this as a non-blocking informational step).
"""

import argparse
import json
import sys
from pathlib import Path

THRESHOLD = 0.20  # +/-20%
ROOT = Path(__file__).resolve().parent.parent
NEW = ROOT / "bench.json"
BASE = ROOT / "BENCH_9.json"


def section_rows(doc, key):
    """A section's rows: a list, or an object carrying them under "rows"."""
    section = doc.get(key, [])
    return section.get("rows", []) if isinstance(section, dict) else section


def load_rows(path: Path):
    """Flatten one bench file into {row_key: nanos_per_run}."""
    with path.open() as f:
        doc = json.load(f)
    rows = {}
    for key in ("experiments", "micro", "graph", "serve"):
        for row in section_rows(doc, key):
            rows[row["name"]] = row.get("nanos_per_run")
    for row in doc.get("vr", []):
        rows[f"{row['name']}/{row['method']}"] = row.get("nanos_per_run")
    return doc.get("schema", "?"), rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 if any regression exceeds the threshold")
    args = ap.parse_args()

    if not NEW.exists():
        print(f"bench-compare: {NEW.name} not found (run `make bench-json` "
              f"first); exiting 0")
        return 0
    old_schema, old = load_rows(BASE)
    new_schema, new = load_rows(NEW)
    print(f"bench-compare: {BASE.name} ({old_schema}) -> "
          f"{NEW.name} ({new_schema})")

    shared = sorted(set(old) & set(new))
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))

    regressions = []
    skipped = []
    for key in shared:
        a, b = old[key], new[key]
        if a is None or b is None or a <= 0:
            # A null or zero baseline admits no ratio (the row errored or
            # under-sampled in that run); note it rather than hiding it.
            skipped.append(key)
            continue
        ratio = b / a - 1.0
        marker = ""
        if ratio > THRESHOLD:
            marker = "  <-- REGRESSION"
            regressions.append((key, ratio))
        elif ratio < -THRESHOLD:
            marker = "  (improved)"
        print(f"  {key:44s} {a:14.6g} -> {b:14.6g} ns  {ratio:+7.1%}{marker}")

    for key in added:
        print(f"  {key:44s} {'new row (informational)':>24s}")
    for key in removed:
        print(f"  {key:44s} {'not in the new file':>20s}")
    for key in skipped:
        print(f"  {key:44s} {'skipped (null/zero baseline)':>28s}")

    if regressions:
        print(f"\nbench-compare: {len(regressions)} row(s) regressed more "
              f"than {THRESHOLD:.0%}:")
        for key, ratio in regressions:
            print(f"  {key}  {ratio:+.1%}")
        if args.strict:
            return 1
        print("bench-compare: informational only (re-run with --strict to fail)")
    else:
        compared = len(shared) - len(skipped)
        note = f" ({len(skipped)} skipped on null/zero baselines)" if skipped else ""
        print(f"\nbench-compare: no row regressed more than {THRESHOLD:.0%} "
              f"across {compared} compared rows{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
