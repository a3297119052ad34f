#!/usr/bin/env python
"""Service benchmark: cold rebuild vs snapshot load vs cached queries.

Measures the three start-up/serving regimes of :class:`repro.service.MatchingService`
over one generated repository:

``cold_load_seconds``
    Load the repository JSON and build every piece of derived state from
    scratch (name/trigram index, per-tree distance oracles, repository
    partition with the paper's *join & remove* reclustering) — what every
    process paid before the service layer existed.

``snapshot_load_seconds``
    Load the same state from a service snapshot in one file read — all of it
    but the distance oracles, which are not persisted.

``cold/warm/cached query latency``
    First query after start-up (which also builds the distance oracles of
    the trees it touches), a different schema (shares the warm derived
    state but misses the query cache), and an exact repeat served from the
    fingerprint-keyed LRU element-match-table cache.

Correctness gates: the snapshot-loaded service must produce mappings
*bit-identical* to the cold-built one, and the snapshot load must beat the
cold rebuild by ``--min-load-speedup`` (3x by default — the acceptance floor;
CI uses a lower floor to absorb shared-runner noise).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_service_query.py
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.clustering.reclustering import join_and_remove
from repro.schema.serialization import load_repository, save_repository
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_service_query.json"


def build_cold(repository_path: Path, threshold: float) -> tuple[float, MatchingService]:
    started = time.perf_counter()
    repository = load_repository(repository_path)
    # The service partition applies the paper's join & remove reclustering to
    # the offline fragments — the "clustering result" the snapshot persists.
    service = MatchingService(
        repository, element_threshold=threshold, partition_reclustering=join_and_remove()
    )
    service.build_derived_state()
    return time.perf_counter() - started, service


def load_warm(snapshot_path: Path) -> tuple[float, MatchingService]:
    started = time.perf_counter()
    service = load_snapshot(snapshot_path, partition_reclustering=join_and_remove())
    return time.perf_counter() - started, service


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=8_000, help="target repository node count")
    parser.add_argument("--min-tree-size", type=int, default=20)
    parser.add_argument("--max-tree-size", type=int, default=220)
    parser.add_argument("--threshold", type=float, default=0.55, help="element similarity threshold")
    parser.add_argument("--rounds", type=int, default=3, help="timing rounds (best-of)")
    parser.add_argument(
        "--min-load-speedup",
        type=float,
        default=3.0,
        help="fail when snapshot load is not this many times faster than a cold rebuild (0 disables)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    parser.add_argument(
        "--workdir", type=Path, default=None, help="scratch dir for repo/snapshot files (default: temp dir)"
    )
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        if args.workdir is None:
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="bench_service_")))
        else:
            workdir = args.workdir
            workdir.mkdir(parents=True, exist_ok=True)
        return _run(args, workdir)


def _run(args, workdir: Path) -> int:
    repository_path = workdir / "bench_service_repository.json"
    snapshot_path = workdir / "bench_service_snapshot.json"

    profile = RepositoryProfile(
        target_node_count=args.nodes,
        min_tree_size=args.min_tree_size,
        max_tree_size=args.max_tree_size,
        name="bench-service",
    )
    repository = RepositoryGenerator(profile).generate()
    save_repository(repository, repository_path)

    # One cold build produces both the snapshot every warm round loads and the
    # reference service for the output-identity gate.
    _, cold_service = build_cold(repository_path, args.threshold)
    write_snapshot(cold_service, snapshot_path, build=False)

    cold_seconds = min(
        build_cold(repository_path, args.threshold)[0] for _ in range(args.rounds)
    )
    snapshot_seconds = min(load_warm(snapshot_path)[0] for _ in range(args.rounds))
    _, warm_service = load_warm(snapshot_path)

    schema = paper_personal_schema()
    started = time.perf_counter()
    cold_result = warm_service.match(schema)
    cold_query_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm_service.match(contact_personal_schema())
    warm_service.match(book_personal_schema())
    warm_query_seconds = (time.perf_counter() - started) / 2

    started = time.perf_counter()
    cached_result = warm_service.match(schema)
    cached_query_seconds = time.perf_counter() - started

    reference_result = cold_service.match(schema)
    identical = (
        reference_result.ranking_key() == cold_result.ranking_key() == cached_result.ranking_key()
    )
    load_speedup = cold_seconds / snapshot_seconds if snapshot_seconds > 0 else float("inf")
    cache_speedup = (
        cold_query_seconds / cached_query_seconds if cached_query_seconds > 0 else float("inf")
    )

    report = {
        "benchmark": "service_query",
        "repository": {
            "trees": repository.tree_count,
            "nodes": repository.node_count,
            "snapshot_bytes": snapshot_path.stat().st_size,
        },
        "threshold": args.threshold,
        "rounds": args.rounds,
        "cold_load_seconds": round(cold_seconds, 6),
        "snapshot_load_seconds": round(snapshot_seconds, 6),
        "load_speedup": round(load_speedup, 3),
        "cold_query_seconds": round(cold_query_seconds, 6),
        "warm_query_seconds": round(warm_query_seconds, 6),
        "cached_query_seconds": round(cached_query_seconds, 6),
        "cached_query_speedup": round(cache_speedup, 3),
        "outputs_identical": identical,
        "service_counters": warm_service.counters.as_dict(),
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))

    if not identical:
        print("FAIL: snapshot-loaded and cold-built services disagree", file=sys.stderr)
        return 1
    if args.min_load_speedup > 0 and load_speedup < args.min_load_speedup:
        print(
            f"FAIL: snapshot load speedup {load_speedup:.2f}x below required "
            f"{args.min_load_speedup}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: snapshot load {load_speedup:.1f}x faster than cold rebuild, "
        f"cached query {cache_speedup:.1f}x faster than cold query, outputs identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
