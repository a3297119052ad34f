"""Run records: provenance, input digests and metrics of one run, and pairing.

A record holds what is needed to trust and compare a run: the machine (core
count, Python, numpy, platform), the code (git commit when the checkout is a
repository, and always a digest of ``src/repro``), the workload seed and the
sha256 of every generated input.  Two records are comparable only when their
workload, seed and input digests are identical; :func:`pairing_problems`
says why a pair is refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

RECORD_FORMAT = "perfbench-run"
RECORD_VERSION = 1


def source_digest(src_dir: Path) -> str:
    """sha256 over the path and bytes of every ``.py`` file under ``src/repro``."""
    digest = hashlib.sha256()
    root = src_dir / "repro"
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(src_dir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def provenance(root: Path, src_dir: Path) -> Dict[str, Any]:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(root),
        "source_sha256": source_digest(src_dir),
        "argv": sys.argv[1:],
    }


def make_record(outcome, machine: Dict[str, Any], seconds: float) -> Dict[str, Any]:
    return {
        "format": RECORD_FORMAT,
        "version": RECORD_VERSION,
        "workload": outcome.workload,
        "seed": outcome.seed,
        "trace": outcome.trace,
        "seconds": seconds,
        "provenance": machine,
        "inputs": dict(sorted(outcome.inputs.digests.items())),
        "correct": outcome.correct,
        "problems": outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "end_to_end": outcome.end_to_end,
        "reported": outcome.reported,
        "notes": outcome.notes,
        "layers": outcome.layers,
        "counts": outcome.counts,
    }


def write_record(record: Dict[str, Any], directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    path = directory / name
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def pairing_problems(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Why two records may not be compared (empty: they may)."""
    problems = []
    for key in ("format", "workload", "seed", "seconds"):
        if first.get(key) != second.get(key):
            problems.append(f"{key} differs: {first.get(key)!r} vs {second.get(key)!r}")
    inputs_a, inputs_b = first.get("inputs", {}), second.get("inputs", {})
    for name in sorted(set(inputs_a) | set(inputs_b)):
        if inputs_a.get(name) != inputs_b.get(name):
            problems.append(f"input {name} differs")
    for label, record in (("first", first), ("second", second)):
        if not record.get("correct"):
            problems.append(f"the {label} run failed its output check")
    return problems


def count_problems(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Counts of the same code on the same inputs must repeat exactly."""
    same_code = first["provenance"]["source_sha256"] == second["provenance"]["source_sha256"]
    if not (same_code and first.get("counts") and second.get("counts")):
        return []
    return [
        f"count {name} differs: {first['counts'][name]} vs {second['counts'].get(name)}"
        for name in sorted(first["counts"])
        if first["counts"][name] != second["counts"].get(name)
    ]
