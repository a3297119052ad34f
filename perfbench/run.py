#!/usr/bin/env python3
"""The repository benchmark: one workload (or ``all`` in turn) for one seed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics (no wrappers installed);
``--trace 1`` alternates untraced and traced blocks and prints the per-layer
ledger.  Every run checks the program's answers against a plain reference
service and prints, as the last line of each workload's report, one JSON
object::

    {"correct": true, "attempted": 180, "failed": 0, "metrics": {...}}

The full run record (provenance, input digests, every figure) is written to
``perfbench-runs/`` in the checkout; ``perfbench/compare.py`` compares two
records and refuses to pair runs whose inputs differ.  The workloads, metrics
and layers are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--records", type=Path, default=ROOT / "perfbench-runs", help="where run records go"
    )
    return parser.parse_args(argv)


def _format(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(outcome, machine) -> None:
    from benchlib.metrics import END_TO_END, LEDGER, REPORTED

    print(f"perfbench {outcome.workload} seed={outcome.seed} trace={int(outcome.trace)}")
    print(
        "provenance: "
        + " ".join(
            f"{key}={machine[key]}"
            for key in ("cores", "python", "numpy", "platform", "commit", "source_sha256")
        )
    )
    print("inputs: " + " ".join(f"{k}={v}" for k, v in sorted(outcome.inputs.digests.items())))
    print("end-to-end:")
    for metric in END_TO_END:
        note = outcome.notes.get(metric.name)
        suffix = f"  ({note})" if note else ""
        print(f"  {metric.name} {_format(outcome.end_to_end[metric.name])} {metric.unit}{suffix}")
    for name, unit in REPORTED:
        print(f"  {name} {_format(outcome.reported.get(name))} {unit}")
    print(f"  operations {outcome.attempted} attempted, {outcome.failed} failed")
    if outcome.trace:
        print("per-layer:")
        for metric in LEDGER:
            print(
                f"  {metric.name} {_format(outcome.layers[metric.name])} {metric.unit}"
                f"  moves={metric.moves} on={metric.on}"
            )
    if outcome.correct:
        print(f"check: ok, {outcome.checked} answers equal the reference service's")
    else:
        for problem in outcome.problems:
            print(f"check: FAILED: {problem}")


def run_one(workload: str, args) -> bool:
    """Run, report and record one workload; print its result line; True if correct."""
    from benchlib import runner
    from benchlib.metrics import END_TO_END, LEDGER
    from benchlib.record import make_record, provenance, write_record

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    outcome = runner.run(workload, args.seed, args.seconds, bool(args.trace), workdir, SRC)
    machine = provenance(ROOT, SRC)
    report(outcome, machine)
    write_record(make_record(outcome, machine, args.seconds), args.records)
    if outcome.trace:
        chosen = {metric.name: (outcome.layers[metric.name], metric.unit) for metric in LEDGER}
    else:
        chosen = {metric.name: (outcome.end_to_end[metric.name], metric.unit) for metric in END_TO_END}
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result), flush=True)
    return outcome.correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from benchlib.workloads import WORKLOADS

    # "all" runs every workload in turn, each printing its own result line.
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    correct = [run_one(name, args) for name in names]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
