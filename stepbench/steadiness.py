#!/usr/bin/env python3
"""Run the step benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 stepbench/steadiness.py --runs 10 [--workloads a,b] [--first-seed 1]
                                    [--trace 0|1] [--json out.json]

For every workload it runs the command of BENCHMARK.json once per seed
(seeds first-seed .. first-seed + runs - 1) and prints, per metric, the
median, the quartiles (Python's statistics.quantiles, n=4), the
interquartile spread as a share of the median, and the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.monotonic() - t
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)} reported a failure:\n{out.stdout}")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {}
    for name in names:
        values, walls = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(bench, name, seed, args.trace)
            walls.append(wall)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"{name}: {args.runs} runs, wall per run {min(walls):.1f}-{max(walls):.1f} s")
        rows = {}
        for metric, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "values": vs}
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None and args.trace == 0:
                verdict = f"bound {bound:.2f} " + ("ok" if spread < bound / 3 else "WIDE")
            print(f"  {metric:<28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} {verdict}")
        record[name] = {"runs": args.runs, "first_seed": args.first_seed,
                        "wall_s": walls, "metrics": rows}
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
