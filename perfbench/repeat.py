#!/usr/bin/env python3
"""Repeat runner: runs every workload several times and summarizes the spread.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--seconds S] [--trace 0|1]

Round r runs each workload once with seed first_seed + r, in forward order
on even rounds and reversed order on odd ones, through run.py exactly as a
single run would. For each workload and metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. A
spread is flagged when it exceeds a third of the bound. Every run must be
correct with zero failed operations; the exit code is 1 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def load_spec():
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=CHECKOUT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated; run.py rejects unknown names")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if args.trace == 0 else {}

    values = {w: {} for w in workloads}
    healthy = True
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(workload, args.first_seed + r, args.seconds, args.trace)
            ok = result["correct"] and result["failed"] == 0
            healthy = healthy and ok
            print(f"round {r} {workload:15s} seed {args.first_seed + r}: "
                  f"{'ok' if ok else 'FAILED'} ({result['attempted']} attempted, "
                  f"{result['failed']} failed)", flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name, series in sorted(values[workload].items()):
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            bound_text = f"{bound:6.2f}" if bound is not None else ""
            print(f"  {name:34s} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound_text:>6s}{flag}")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
