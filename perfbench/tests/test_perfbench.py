"""Tests of the benchmark itself: seeded inputs, the output check, the ledger."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchlib.runner import check_digests  # noqa: E402
from benchlib.inputs import build_inputs, make_repository  # noqa: E402
from benchlib.metrics import END_TO_END, LEDGER  # noqa: E402
from benchlib.record import pairing_problems  # noqa: E402
from benchlib.tracing import ProfileSplit  # noqa: E402
from benchlib.workloads import WORKLOADS, settle  # noqa: E402


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    first, again, other = (build_inputs(workload, seed) for seed in (11, 11, 12))
    assert first.digests == again.digests
    assert first.digests["query_stream"] != other.digests["query_stream"]
    if workload == "serve-zipf":
        # The request lines themselves, byte for byte.
        assert [line for line, _ in first.ops] == [line for line, _ in again.ops]


def test_output_check_rejects_a_tampered_ranking_digest(tmp_path):
    workload = WORKLOADS["cold-mutate"]
    inputs = build_inputs("cold-mutate", 5)
    backend = workload.setup(make_repository(), inputs, tmp_path)
    try:
        records = [workload.run_op(backend, inputs, index) for index in range(6)]
    finally:
        backend.close()
    for record in records:
        settle(record)
    reference = workload.reference(make_repository(), inputs, 5)
    checked, problems = check_digests(records, reference)
    assert checked and problems == []
    query = next(record for record in records if record.digests)
    query.digests = ["0" * 64]
    _, problems = check_digests(records, reference)
    assert problems and f"stream position {query.index}" in problems[0]


def test_pairing_refuses_runs_whose_inputs_differ():
    record = {
        "format": "perfbench-run",
        "workload": "serve-zipf",
        "seed": 1,
        "seconds": 10,
        "correct": True,
        "inputs": {"query_stream": "a", "repository": "b"},
    }
    assert pairing_problems(record, dict(record)) == []
    changed = dict(record, inputs={"query_stream": "a", "repository": "c"})
    assert pairing_problems(record, changed) == ["input repository differs"]


def test_profile_split_names_hot_modules_without_a_layer():
    split = ProfileSplit({"repro/mapping/engine.py": 0.6, "repro/cli.py": 0.3}, external=0.1)
    assert split.share("mapping") == pytest.approx(0.6)
    assert [module for module, _ in split.unmapped()] == ["repro/cli.py"]


def test_manifest_matches_the_metric_catalogue(manifest):
    assert [workload["name"] for workload in manifest["workloads"]] == list(WORKLOADS)
    assert [
        (metric["name"], metric["unit"], metric["better"], metric["bound"])
        for metric in manifest["end_to_end"]
    ] == [tuple(metric) for metric in END_TO_END]
    assert [(metric["name"], metric["unit"], metric["better"]) for metric in manifest["per_layer"]] == [
        (metric.name, metric.unit, metric.better) for metric in LEDGER
    ]
    known = {metric.name for metric in END_TO_END} | {metric.name for metric in LEDGER}
    known |= {"mutation_p50_ms", "snapshot_mb", "none"}
    for metric in LEDGER:
        assert set(metric.moves.split(",")) <= known, metric
        assert set(metric.on.split(",")) <= set(WORKLOADS) | {"all"}, metric


def test_traced_run_prints_every_layer_metric_with_what_it_moves(manifest, tmp_path):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-mutate", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--records", str(tmp_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [metric["name"] for metric in manifest["per_layer"]]
    for metric in LEDGER:
        assert any(
            line.split()[0] == metric.name and f"moves={metric.moves} on={metric.on}" in line
            for line in lines[:-1]
            if line.startswith("  ")
        ), metric.name
    record = json.loads(next(tmp_path.glob("*.json")).read_text(encoding="utf-8"))
    assert {"cores", "python", "numpy", "platform", "commit", "source_sha256"} <= set(record["provenance"])
    assert {"query_stream", "repository", "mutation_trees"} <= set(record["inputs"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
