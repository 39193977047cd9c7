#!/usr/bin/env python3
"""Run confbench over several seeds and record the results.

    python3 bench/e2e/record.py --out bench/e2e/results/set-a.json [--seed0 1]

Each workload runs RUNS times untraced, seed --seed0, --seed0 + 1, ...,
with BENCHMARK.json's run_seconds, and then TRACED times traced, on the
first TRACED of those seeds.  For every end-to-end metric the file
records each run's value, the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median
that the acceptance rule compares with the metric's bound.  Run from the
repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10
TRACED = 3


def run(workload, seed, seconds, trace):
    cmd = ["sh", "bench/e2e/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    env = json.loads(lines[-2])["env"]
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: a gate failed: {lines[-1]}")
    return env, result


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"command": bench["command"], "run_seconds": seconds, "workloads": {}}
    for name in names:
        runs, env = [], None
        for i in range(RUNS):
            seed = args.seed0 + i
            env, result = run(name, seed, seconds, False)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for metric in bounds:
            s = summarize([r["metrics"][metric] for r in runs])
            s["bound"] = bounds[metric]
            summary[metric] = s
            print(f"  {metric}: median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" (bound {bounds[metric]})", flush=True)
        traced = []
        for i in range(TRACED):
            _, result = run(name, args.seed0 + i, seconds, True)
            traced.append({"seed": args.seed0 + i,
                           "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        out["workloads"][name] = {"env": env, "runs": runs, "summary": summary,
                                  "traced": traced}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
