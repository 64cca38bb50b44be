#!/usr/bin/env python3
"""Builds the ampsched benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and is incremental, so only the first run compiles.
The last line of stdout is the result JSON; build output goes to stderr.
Traced runs also write their span dump (Chrome-trace JSON) under
<build dir>/traces/.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("solve_cold", "capacity_sweep", "stream", "stream_planner")
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def build(build_dir):
    """Configures (once) and builds ampbench; returns its path or None."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "ampbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = build_dir / "ampbench"
    return binary if binary.exists() else None


def main():
    args = parse_args()
    build_dir = CHECKOUT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
