"""One benchmark run: set-up, timed blocks, passes, output check, metrics.

Order of a run:

1. build the seeded inputs;
2. set the backend up :data:`SETUPS` times from a fresh in-memory repository,
   timing each (``setup_s`` is the median) and keeping the last one;
3. warm up, then run timed blocks of about :data:`BLOCK_SECONDS` until the
   run time is spent.  With tracing, blocks alternate untraced and traced:
   the untraced ones give the throughput the traced ones are compared with
   (``trace.overhead_frac``), the traced ones give the per-layer figures;
4. traced runs replay the first operations twice, serially, on fresh
   backends: once under ``cProfile`` (the per-module split) and once plain.
   The program's counters of both replays must be equal;
5. a plain in-memory, serial, cache-off service answers every operation the
   run made, outside any timed region; every ranking digest must match.
"""

from __future__ import annotations

import cProfile
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchlib.inputs import Inputs, build_inputs, make_repository
from benchlib.metrics import LEDGER, mean, median, ms, tail
from benchlib.tracing import Span, Tracer, covered, split_profile
from benchlib.workloads import (
    WORKLOADS,
    Backend,
    Cursor,
    OpRecord,
    Workload,
    process_peak_rss_mb,
    settle,
    snapshot_stats,
)

SETUPS = 5
BLOCK_SECONDS = 1.0

#: Span name -> the layer its self time belongs to.
SPAN_LAYERS = {
    "api.client": "api",
    "api.handle": "api",
    "service.match": "service",
    "service.mutation": "service",
    "matchers": "matchers",
    "clustering": "clustering",
    "mapping": "mapping",
    "shard.match_many": "shard",
    "shard.fanout": "shard",
}


@dataclass
class Block:
    traced: bool
    start: float
    end: float
    records: List[OpRecord]


@dataclass
class RunOutcome:
    workload: str
    seed: int
    trace: bool
    inputs: Inputs
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: End-to-end figures that are printed but not gated (see metrics.REPORTED).
    reported: Dict[str, Optional[float]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    checked: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems


def _setups(
    workload: Workload, inputs: Inputs, workdir: Path
) -> Tuple[Backend, List[float], List[Dict[str, float]]]:
    """Set up SETUPS times; the last backend stays open for the run."""
    times: List[float] = []
    phases: List[Dict[str, float]] = []
    for attempt in range(SETUPS):
        if attempt:
            backend.close()
        repository = make_repository()
        target = workdir / f"setup-{attempt}"
        target.mkdir(parents=True)
        start = time.perf_counter()
        backend = workload.setup(repository, inputs, target)
        times.append(time.perf_counter() - start)
        phases.append(backend.phases)
    return backend, times, phases


def _run_block(
    workload: Workload,
    backend: Backend,
    inputs: Inputs,
    cursor: Cursor,
    tracer: Optional[Tracer],
) -> Block:
    if tracer is not None:
        workload.instrument(backend, tracer)
    start = time.perf_counter()
    deadline = start + BLOCK_SECONDS
    if workload.serves_over_socket:
        records = workload.run_block(backend, inputs, cursor, deadline, tracer)
    else:
        records = []
        while time.perf_counter() < deadline or cursor.next % workload.unit_ops:
            index = cursor.take()
            if tracer is not None:
                tracer.begin_request(index)
            record = workload.run_op(backend, inputs, index)
            settle(record)
            records.append(record)
    end = time.perf_counter()
    if tracer is not None:
        tracer.unwrap_all()
    return Block(tracer is not None, start, end, records)


def _count_pass(
    workload: Workload, inputs: Inputs, workdir: Path, profile: bool
) -> Tuple[List[OpRecord], Dict[str, Any], Optional[cProfile.Profile]]:
    workdir.mkdir(parents=True)
    backend = workload.setup(make_repository(), inputs, workdir)
    profiler = cProfile.Profile() if profile else None
    records = []
    try:
        for index in range(workload.count_ops):
            if profiler is not None:
                profiler.enable()
            record = workload.counted_op(backend, inputs, index)
            if profiler is not None:
                profiler.disable()
            settle(record)
            records.append(record)
        stats = workload.stats(backend)
    finally:
        backend.close()
    return records, stats, profiler


def count_metrics(records: List[OpRecord], stats: Dict[str, Any]) -> Dict[str, float]:
    """The per-query counts of a serial replay (exact: they must repeat)."""
    totals: Dict[str, int] = {}
    queries = 0
    for record in records:
        for counters in record.counters:
            queries += 1
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + int(value)

    def per_query(key: str) -> float:
        return totals.get(key, 0) / queries if queries else 0.0

    def ratio(part: str, whole: str) -> float:
        return totals.get(part, 0) / totals[whole] if totals.get(whole) else 0.0

    batches = sum(1 for record in records if record.kind == "batch")
    return {
        "matchers.comparisons": per_query("element_comparisons"),
        "matchers.kernel_calls": per_query("similarity_kernel_calls"),
        "matchers.pruned_frac": ratio("comparisons_pruned", "element_comparisons"),
        "clustering.distance_computations": per_query("distance_computations"),
        "mapping.partial_mappings": per_query("partial_mappings"),
        "mapping.pruned_frac": ratio("pruned_partial_mappings", "partial_mappings"),
        "mapping.evaluated_mappings": per_query("evaluated_mappings"),
        "shard.shard_queries": stats.get("shard_queries", 0) / batches if batches else 0.0,
    }


def _throughput(workload: Workload, blocks: List[Block]) -> Tuple[int, float]:
    """Queries answered and the timed wall time they took.

    Over the socket the wall time of the blocks counts; in process, the time
    spent inside operations (the benchmark's own digesting between operations
    is not the program's time).
    """
    answered = sum(
        record.queries for block in blocks for record in block.records if not record.failed
    )
    if workload.serves_over_socket:
        wall = sum(block.end - block.start for block in blocks)
    else:
        wall = sum(record.end - record.start for block in blocks for record in block.records)
    return answered, wall


def _stat_delta(before: Dict[str, Any], after: Dict[str, Any], key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def _layer_metrics(
    workload: Workload,
    blocks: List[Block],
    tracer: Tracer,
    stats_before: Dict[str, Any],
    stats_after: Dict[str, Any],
) -> Dict[str, float]:
    traced = [block for block in blocks if block.traced]
    records = [record for block in traced for record in block.records]
    queries = sum(record.queries for record in records if record.kind != "mutation")
    batches = sum(1 for record in records if record.kind == "batch")
    spans = tracer.spans
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    # The client's round trip contains the server's handling of the request.
    clients = {span.request: span for span in by_name.get("api.client", [])}
    for span in by_name.get("api.handle", []):
        client = clients.get(span.request)
        if client is not None:
            client.child += span.duration

    def total(name: str, own: bool = False) -> float:
        return sum(span.self_time if own else span.duration for span in by_name.get(name, []))

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    layer_self: Dict[str, float] = {}
    for span in spans:
        layer = SPAN_LAYERS.get(span.name)
        if layer is not None:
            layer_self[layer] = layer_self.get(layer, 0.0) + span.self_time
    if workload.serves_over_socket:
        op_time = total("api.client")
        wall = sum(block.end - block.start for block in traced)
        root_cover = sum(
            covered(
                (span.start, span.end)
                for span in by_name.get("api.client", [])
                if block.start <= span.start <= block.end
            )
            for block in traced
        )
        unattributed = (wall - root_cover) / wall if wall else 0.0
    else:
        op_time = sum(record.end - record.start for record in records)
        roots: Dict[Any, List[Span]] = {}
        for span in spans:
            if span.parent is None:
                roots.setdefault(span.request, []).append(span)
        gap = 0.0
        for record in records:
            inside = covered(
                (max(span.start, record.start), min(span.end, record.end))
                for span in roots.get(record.index, [])
                if span.end > record.start and span.start < record.end
            )
            gap += (record.end - record.start) - inside
        unattributed = gap / op_time if op_time else 0.0
    mutations = by_name.get("service.mutation", [])
    hits = _stat_delta(stats_before, stats_after, "query_cache_hits")
    misses = _stat_delta(stats_before, stats_after, "query_cache_misses")
    asked = _stat_delta(stats_before, stats_after, "queries")
    metrics = {
        "api.handle_ms": ms(per(total("api.handle"), queries)),
        "api.codec_ms": ms(per(total("api.handle", own=True), queries)),
        "api.queue_wait_ms": ms(per(total("api.client", own=True), queries)),
        "api.response_kb": mean([record.response_bytes / 1024.0 for record in records])
        if workload.serves_over_socket
        else 0.0,
        "service.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "service.dedup_frac": _stat_delta(stats_before, stats_after, "duplicate_queries") / asked
        if asked
        else 0.0,
        "service.mutation_ms": ms(per(sum(span.duration for span in mutations), len(mutations))),
        "matchers.self_ms": ms(per(total("matchers", own=True), queries)),
        "clustering.self_ms": ms(per(total("clustering", own=True), queries)),
        "mapping.self_ms": ms(per(total("mapping", own=True), queries)),
        "shard.fanout_ms": ms(per(total("shard.fanout"), batches)),
        "shard.merge_ms": ms(per(total("shard.match_many", own=True), batches)),
        "trace.unattributed_frac": unattributed,
    }
    for layer in ("api", "service", "matchers", "clustering", "mapping", "shard"):
        metrics[f"{layer}.share"] = per(layer_self.get(layer, 0.0), op_time)
    untraced = [block for block in blocks if not block.traced]
    answered_t, wall_t = _throughput(workload, traced)
    answered_u, wall_u = _throughput(workload, untraced)
    if wall_t and wall_u and answered_u:
        metrics["trace.overhead_frac"] = 1.0 - (answered_t / wall_t) / (answered_u / wall_u)
    else:
        metrics["trace.overhead_frac"] = 0.0
    return metrics


def check_digests(
    records: List[OpRecord], reference: Dict[int, List[str]]
) -> Tuple[int, List[str]]:
    """Compare every answered operation with the reference: (answers checked, problems)."""
    checked = 0
    mismatched = []
    for record in records:
        if record.failed:
            continue
        if record.digests != reference[record.index]:
            mismatched.append(record.index)
        checked += len(record.digests)
    if not mismatched:
        return checked, []
    return checked, [
        f"{len(mismatched)} operations answered differently from the reference "
        f"(first at stream position {mismatched[0]})"
    ]


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path, src_dir: Path) -> RunOutcome:
    workload = WORKLOADS[workload_name]
    inputs = build_inputs(workload_name, seed)
    outcome = RunOutcome(workload_name, seed, trace, inputs)
    try:
        _execute(workload, inputs, seconds, trace, workdir, src_dir, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there
    return outcome


def _execute(
    workload: Workload,
    inputs: Inputs,
    seconds: float,
    trace: bool,
    workdir: Path,
    src_dir: Path,
    outcome: RunOutcome,
) -> None:
    backend, setup_times, phases = _setups(workload, inputs, workdir)
    try:
        snapshot_bytes, oracle_bytes, header_digest = snapshot_stats(backend.snapshot_paths)
        if header_digest is not None:
            inputs.digests["snapshot_header"] = header_digest
        cursor = Cursor()
        warmup = [workload.run_op(backend, inputs, cursor.take()) for _ in range(workload.warmup_ops)]
        for record in warmup:
            settle(record)
        stats_before = workload.stats(backend)
        tracer = Tracer() if trace else None
        blocks: List[Block] = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            traced_block = trace and len(blocks) % 2 == 1
            blocks.append(
                _run_block(workload, backend, inputs, cursor, tracer if traced_block else None)
            )
        peak_rss = process_peak_rss_mb()
        stats_after = workload.stats(backend)
        task = workload.task_bytes(backend, inputs)
        if trace and task is not None:
            workload.instrument(backend, tracer)
            wrapped_task = workload.task_bytes(backend, inputs)
            tracer.unwrap_all()
            if wrapped_task != task:
                outcome.problems.append("span wrappers changed the pickled worker task")
    finally:
        backend.close()

    records = warmup + [record for block in blocks for record in block.records]
    outcome.attempted = len(records)
    outcome.failed = sum(1 for record in records if record.failed)

    untraced = [block for block in blocks if not block.traced]
    latencies = [
        record.latency for block in untraced for record in block.records if record.kind != "mutation"
    ]
    answered, wall = _throughput(workload, untraced)
    tail_value, tail_percentile = tail(latencies)
    outcome.end_to_end.update(
        {
            "latency_p50_ms": ms(median(latencies)),
            "latency_tail_ms": ms(tail_value),
            "throughput_qps": answered / wall if wall else 0.0,
            "peak_rss_mb": peak_rss,
            "setup_s": median(setup_times),
        }
    )
    outcome.notes["latency_tail_ms"] = f"p{tail_percentile:.1f} of {len(latencies)} samples"
    outcome.notes["latency_p50_ms"] = f"{len(latencies)} samples"
    mutation_latencies = [
        record.latency for block in untraced for record in block.records if record.kind == "mutation"
    ]
    outcome.reported = {
        "mutation_p50_ms": ms(median(mutation_latencies)) if mutation_latencies else None,
        "snapshot_mb": snapshot_bytes / 2**20 if snapshot_bytes else None,
        "error_frac": outcome.failed / outcome.attempted if outcome.attempted else 0.0,
    }

    if trace:
        assert tracer is not None
        layer = _layer_metrics(workload, blocks, tracer, stats_before, stats_after)
        profiled, profiled_stats, profiler = _count_pass(workload, inputs, workdir / "count-a", True)
        plain, plain_stats, _ = _count_pass(workload, inputs, workdir / "count-b", False)
        counts = count_metrics(profiled, profiled_stats)
        if counts != count_metrics(plain, plain_stats):
            outcome.problems.append("program counters differ between two replays of one seed")
        counts["executor.task_kb"] = len(task) / 1024.0 if task is not None else 0.0
        outcome.counts = dict(counts)
        layer.update(counts)
        assert profiler is not None
        split = split_profile(profiler, src_dir)
        for module, share in split.unmapped():
            outcome.problems.append(
                f"profiled module {module} has {share:.1%} of self time and no layer"
            )
        layer["labeling.self_frac"] = split.share("labeling")
        layer["objective.self_frac"] = split.share("objective")
        layer["mapping.engine_self_frac"] = split.share("mapping")
        layer["storage.freeze_s"] = median([phase.get("freeze_s", 0.0) for phase in phases])
        layer["storage.open_ms"] = median([phase.get("open_ms", 0.0) for phase in phases])
        layer["storage.oracle_frac"] = oracle_bytes / snapshot_bytes if snapshot_bytes else 0.0
        outcome.layers = {metric.name: layer[metric.name] for metric in LEDGER}

    reference = workload.reference(make_repository(), inputs, max(record.index for record in records))
    outcome.checked, problems = check_digests(records, reference)
    outcome.problems.extend(problems)


