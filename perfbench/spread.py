#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

Runs the benchmark command once per seed on each chosen workload and
prints, for every end-to-end metric, the median of the runs and the
distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of that median. Every
spread must stay within its metric's bound, and should stay below a
third of it. Exits non-zero otherwise.

    python3 perfbench/spread.py --workload mesh_poisson --runs 5

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for i in range(args.runs):
            for k, v in run_once(spec, w, args.first_seed + i, seconds).items():
                values.setdefault(k, []).append(v)
        print(f"== {w}")
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            s = (q3 - q1) / med
            bound = bounds[name]
            ok &= s <= bound
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            print(f"  {name:<12} median {med:12.4f}  spread {s:7.4f}  bound {bound:5.2f}  {verdict}")
            print(f"  {'':<12} values {' '.join(f'{v:.4f}' for v in vs)}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
