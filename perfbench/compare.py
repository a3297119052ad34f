#!/usr/bin/env python3
"""Compare two run records written by ``perfbench/run.py``.

    python3 perfbench/compare.py perfbench-runs/A.json other/perfbench-runs/A.json

Refuses (exit code 2) to pair runs whose workload, seed, run length or any
input digest differ, or where either run failed its output check.  Otherwise
prints every end-to-end metric of both runs with the relative change and the
benchmark's bound, and the per-layer metrics when both runs were traced.
Counts made by the same code on the same inputs must be identical; a
difference is reported and exits with code 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib.metrics import END_TO_END, LEDGER  # noqa: E402
from benchlib.record import count_problems, pairing_problems  # noqa: E402


def _change(first: float, second: float) -> str:
    if not first:
        return "n/a"
    return f"{(second - first) / first:+.1%}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args)
    refused = pairing_problems(first, second)
    if refused:
        for problem in refused:
            print(f"refused: {problem}", file=sys.stderr)
        return 2
    print(f"{first['workload']} seed={first['seed']} seconds={first['seconds']}")
    for metric in END_TO_END:
        a, b = first["end_to_end"][metric.name], second["end_to_end"][metric.name]
        print(
            f"  {metric.name:<18} {a:12.4f} {b:12.4f} {metric.unit:<5} "
            f"{_change(a, b):>8}  bound {metric.bound:.0%} ({metric.better} is better)"
        )
    if first.get("layers") and second.get("layers"):
        for metric in LEDGER:
            a, b = first["layers"][metric.name], second["layers"][metric.name]
            print(f"  {metric.name:<34} {a:12.4f} {b:12.4f} {metric.unit:<8} {_change(a, b):>8}")
    problems = count_problems(first, second)
    for problem in problems:
        print(f"counts: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
