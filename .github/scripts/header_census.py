#!/usr/bin/env python3
"""Fails when a header under src/ is included by no program.

    python3 .github/scripts/header_census.py [CHECKOUT]

For every src/**/*.hpp, some .hpp or .cpp file under src/, examples/,
perfbench/src/ or benchmarks/ -- other than the header itself and its
same-named .cpp -- must contain #include "<the header's path under src/>".
Tests do not count: a header only tests include is code no program runs.
Prints each offender and exits 1 if there is any. CHECKOUT defaults to the
checkout this script sits in.
"""

import pathlib
import re
import sys

SCANNED = ("src", "examples", "perfbench/src", "benchmarks")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).resolve().parents[2])
    src = root / "src"
    includers = {}  # included path -> files that include it
    for tree in SCANNED:
        for path in (root / tree).rglob("*"):
            if path.suffix in (".hpp", ".cpp"):
                for name in INCLUDE.findall(path.read_text(encoding="utf-8")):
                    includers.setdefault(name, set()).add(path)

    orphans = []
    for header in sorted(src.rglob("*.hpp")):
        own = {header, header.with_suffix(".cpp")}
        if not includers.get(header.relative_to(src).as_posix(), set()) - own:
            orphans.append(header.relative_to(root).as_posix())

    for orphan in orphans:
        print(f"{orphan}: no file under {', '.join(SCANNED)} includes it")
    if orphans:
        print(f"header census: {len(orphans)} header(s) no program includes")
        return 1
    print("header census: every src/ header has an includer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
