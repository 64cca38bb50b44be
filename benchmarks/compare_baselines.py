#!/usr/bin/env python3
"""Compare amp-bench-v1 reports with the checked-in baselines.

Usage: compare_baselines.py RUN_DIR [BASELINE_DIR]

Every BENCH_*.json in BASELINE_DIR (default: baselines/ beside this script)
must have a report of the same name in RUN_DIR. For each pair, every
top-level field other than `records` (schema, bench, params) and every
field of every record, matched by record index, must be exactly equal:
same JSON type, same value. Fields that time the machine are listed by
name in TREND_FIELDS, per bench; their run/baseline ratio is printed and
never fails. No field is classified by its name's suffix: a period in
microseconds is a model answer and gates like any other.

Exits 1 naming the bench, the record, the field and both values of every
difference; 0 when all compared reports match.
"""

import json
import math
import sys
from pathlib import Path

# Machine-timed fields, by the report's `bench` name.
TREND_FIELDS = {
    "ext_autoscale": {"cold_us", "warm_us", "speedup", "median_speedup"},
}

# Baselines left out of the comparison, with the reason printed for each.
SKIPPED = {
    "BENCH_multi_tenant.json": "its metrics snapshot still lists metric names "
    "that the code no longer registers; it is not compared until the baseline "
    "is refreshed",
}


def same(a, b):
    """Exact equality of two JSON values, types included (1 != 1.0 != true)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def ratio(run, base):
    if isinstance(run, bool) or not isinstance(run, (int, float)):
        return "n/a"
    if isinstance(base, bool) or not isinstance(base, (int, float)) or base == 0:
        return "n/a"
    value = run / base
    return f"{value:.3f}" if math.isfinite(value) else "n/a"


def compare(name, run, base):
    """Returns (failures, exact fields checked, trend lines) for one report."""
    failures = []
    trend = []
    checked = 0
    bench = base.get("bench", name)
    trend_fields = TREND_FIELDS.get(bench, set())

    for key in sorted(set(run) | set(base)):
        if key == "records":
            continue
        checked += 1
        if key not in run or key not in base or not same(run[key], base[key]):
            failures.append(
                f"{name} ({bench}): field '{key}': run {json.dumps(run.get(key))}"
                f" != baseline {json.dumps(base.get(key))}"
            )

    run_records = run.get("records", [])
    base_records = base.get("records", [])
    if len(run_records) != len(base_records):
        failures.append(
            f"{name} ({bench}): {len(run_records)} records in the run,"
            f" {len(base_records)} in the baseline"
        )
    for index, (got, want) in enumerate(zip(run_records, base_records)):
        label = f"record {index}"
        if isinstance(want, dict) and "scenario" in want:
            label += f" (scenario {want['scenario']})"
        for field in sorted(set(got) | set(want)):
            if field in trend_fields:
                trend.append(
                    f"  {label} {field}: {got.get(field)} vs {want.get(field)}"
                    f" -> ratio {ratio(got.get(field), want.get(field))}"
                )
                continue
            checked += 1
            if field not in got or field not in want or not same(got[field], want[field]):
                failures.append(
                    f"{name} ({bench}): {label}: field '{field}': run"
                    f" {json.dumps(got.get(field, '<missing>'))} != baseline"
                    f" {json.dumps(want.get(field, '<missing>'))}"
                )
    return failures, checked, trend


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    run_dir = Path(argv[1])
    base_dir = Path(argv[2]) if len(argv) == 3 else Path(__file__).parent / "baselines"
    baselines = sorted(base_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no BENCH_*.json in {base_dir}", file=sys.stderr)
        return 2

    failures = []
    compared = 0
    for base_path in baselines:
        name = base_path.name
        if name in SKIPPED:
            print(f"{name}: skipped: {SKIPPED[name]}")
            continue
        run_path = run_dir / name
        if not run_path.exists():
            failures.append(f"{name}: no report in {run_dir}")
            continue
        with open(run_path) as f:
            run = json.load(f)
        with open(base_path) as f:
            base = json.load(f)
        report_failures, checked, trend = compare(name, run, base)
        compared += 1
        status = "FAIL" if report_failures else "ok"
        print(f"{name}: {status}: {checked} exact fields, {len(trend)} trend fields")
        for line in trend:
            print(line)
        failures.extend(report_failures)

    for failure in failures:
        print(f"MISMATCH {failure}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} difference(s) from the baselines", file=sys.stderr)
        return 1
    print(f"{compared} report(s) match their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
