#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 1]
        [--seconds 10] [--trace 0] [WORKLOAD ...]

Run from the repository root.  For every workload (default: all in
BENCHMARK.json) it runs perfbench/run.py once per seed and prints, per
metric, the median, the quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(values, n=4)) and, for end-to-end metrics, the
metric's bound and whether the spread is under a third of it.  The raw
results go to stderr as JSON lines, one per run.  Exits 1 when any run
fails or reports an output check failure.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            print(json.dumps({"workload": w, "seed": seed, **result}), file=sys.stderr)
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.seeds} seeds, --trace {args.trace})")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            med, s = spread(vs)
            line = f"{name:28s} median {med:14.6g}  spread {s:7.4f}"
            if name in bounds:
                b = bounds[name]
                line += f"  bound {b:.2f}  {'ok' if s < b / 3 else 'WIDE'}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
