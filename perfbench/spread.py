#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread (IQR / median) against its bound.

    python3 perfbench/spread.py --workload bigtrace --seeds 1 2 3 4 5

Run from the repository root. A spread at or above a third of the
metric's bound is flagged: the benchmark is meant to stay below it.
"""
import argparse
import json
import statistics
import subprocess
import sys

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
ap.add_argument("--seconds", type=int)
args = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
seconds = args.seconds or bench["run_seconds"]
values = {}
for seed in args.seeds:
    cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect run:\n{proc.stderr}")
    for name, m in result["metrics"].items():
        values.setdefault(name, []).append(m["value"])
    print(f"seed {seed}: done", file=sys.stderr)

worst = 0.0
for m in bench["end_to_end"]:
    xs = values[m["name"]]
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else float("inf")
    flag = "" if spread < m["bound"] / 3 else "  <-- over a third of the bound"
    if m["name"] != "setup_s":
        worst = max(worst, spread / m["bound"])
    print(f"{m['name']:26s} median {med:14.6g} {m['unit']:5s} spread {spread:7.4f}"
          f" bound {m['bound']:.2f}{flag}")
    print("    " + " ".join(f"{x:.4g}" for x in xs))
print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
