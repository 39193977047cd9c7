#!/usr/bin/env python3
"""Alternating A/B pairs of one confbench workload on two source trees.

    python3 scripts/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W \
        [--seeds 101-110] [--seconds 15]

Each pair runs

    sh bench/e2e/run.sh --workload W --seed S --seconds N --trace 0

once in each tree, on the same seed, with the side that goes first
alternating from pair to pair.  For every end-to-end metric it prints
each run's value, each side's median and quartiles, the number of pairs
the change won (ties count for neither side), and whether the gain rule
holds: the change wins at least nine tenths of the pairs, and its median
is better than the parent's by more than the parent's quartile spread
(q3 - q1).  The metric directions come from the parent's BENCHMARK.json.

The script only runs each tree's bench/e2e/run.sh; it edits nothing.
Exit status 1 when a run prints no result or fails a gate.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree, workload, seed, seconds):
    cmd = ["sh", "bench/e2e/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=1800)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        sys.exit(f"{tree}: {workload} seed {seed}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{tree}: {workload} seed {seed}: a gate failed: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, lower_is_better):
    sign = 1 if lower_is_better else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    c1, c3 = quartiles(change)
    holds = wins >= math.ceil(0.9 * len(parent)) and sign * (pm - cm) > q3 - q1
    return {"parent_median": pm, "parent_q1": q1, "parent_q3": q3,
            "change_median": cm, "change_q1": c1, "change_q3": c3, "wins": wins,
            "pairs": len(parent), "rel_change": (cm - pm) / pm if pm else 0.0,
            "rule_holds": holds}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="101-110", help="inclusive range, e.g. 101-110")
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args()

    bench = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds_of(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            tree = args.parent if side == "parent" else args.change
            runs[side].append(run(tree, args.workload, seed, args.seconds))
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + " ".join(
            f"{m} {runs['parent'][-1][m]:.6g}->{runs['change'][-1][m]:.6g}"
            for m in lower), flush=True)

    print(f"\n{args.workload}, {len(runs['parent'])} pairs, {args.seconds} s runs")
    for m, lo in lower.items():
        v = verdict([r[m] for r in runs["parent"]], [r[m] for r in runs["change"]], lo)
        print(f"  {m}: parent {v['parent_median']:.6g} [{v['parent_q1']:.6g}, "
              f"{v['parent_q3']:.6g}]  change {v['change_median']:.6g} "
              f"[{v['change_q1']:.6g}, {v['change_q3']:.6g}]  "
              f"{v['rel_change']:+.1%}  won {v['wins']}/{v['pairs']}  "
              f"rule {'holds' if v['rule_holds'] else 'does not hold'}")


if __name__ == "__main__":
    main()
