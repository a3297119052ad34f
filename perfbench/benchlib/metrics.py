"""The metric catalogue and the latency statistics.

``END_TO_END`` are the metrics an untraced run prints (what a user of the
system sees); ``REPORTED`` are end-to-end figures that apply to only some
workloads or are 0 when all goes well, so they are printed and recorded but
not gated.  ``LEDGER`` is the traced run's per-layer catalogue: each metric
with the end-to-end metric it should move and the workload it should move it
on.  ``BENCHMARK.json`` lists exactly these names.
"""

from __future__ import annotations

import sys
from typing import List, NamedTuple, Sequence, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25),
    EndToEnd("latency_tail_ms", "ms", "lower", 0.25),
    EndToEnd("throughput_qps", "1/s", "higher", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
    EndToEnd("setup_s", "s", "lower", 0.25),
)

#: Printed with every untraced run and kept in the run record, never gated:
#: ``mutation_p50_ms`` exists on cold-mutate only, ``snapshot_mb`` only where
#: a snapshot is served from, and ``error_frac`` is 0 on a healthy run.
REPORTED: Tuple[Tuple[str, str], ...] = (
    ("mutation_p50_ms", "ms"),
    ("snapshot_mb", "MB"),
    ("error_frac", "fraction"),
)

_ALL = "all"
_SERVE = "serve-zipf"
_PAPER = "paper-complete"
_COLD = "cold-mutate"
_SHARD = "shard-batch"

LEDGER: Tuple[LayerMetric, ...] = (
    LayerMetric("api.handle_ms", "ms", "lower", "latency_p50_ms", _SERVE),
    LayerMetric("api.codec_ms", "ms", "lower", "latency_p50_ms", _SERVE),
    LayerMetric("api.queue_wait_ms", "ms", "lower", "latency_tail_ms", _SERVE),
    LayerMetric("api.response_kb", "KB", "lower", "latency_p50_ms", _SERVE),
    LayerMetric("service.cache_hit_frac", "fraction", "higher", "latency_p50_ms", _SERVE),
    LayerMetric("service.dedup_frac", "fraction", "higher", "throughput_qps", _SHARD),
    LayerMetric("service.mutation_ms", "ms", "lower", "mutation_p50_ms", _COLD),
    LayerMetric("matchers.self_ms", "ms", "lower", "latency_p50_ms", _COLD),
    LayerMetric("matchers.comparisons", "count", "lower", "matchers.self_ms", _COLD),
    LayerMetric("matchers.kernel_calls", "count", "lower", "matchers.self_ms", _COLD),
    LayerMetric("matchers.pruned_frac", "fraction", "higher", "matchers.self_ms", _COLD),
    LayerMetric("clustering.self_ms", "ms", "lower", "throughput_qps", _PAPER),
    LayerMetric("clustering.distance_computations", "count", "lower", "clustering.self_ms", _PAPER),
    LayerMetric("mapping.self_ms", "ms", "lower", "throughput_qps,latency_p50_ms", f"{_PAPER},{_SERVE}"),
    LayerMetric("mapping.partial_mappings", "count", "lower", "mapping.self_ms", _PAPER),
    LayerMetric("mapping.pruned_frac", "fraction", "higher", "mapping.self_ms", f"{_PAPER},{_COLD}"),
    LayerMetric("mapping.evaluated_mappings", "count", "lower", "mapping.self_ms", _PAPER),
    LayerMetric("labeling.self_frac", "fraction", "lower", "throughput_qps", _PAPER),
    LayerMetric("objective.self_frac", "fraction", "lower", "throughput_qps", _PAPER),
    LayerMetric("mapping.engine_self_frac", "fraction", "lower", "throughput_qps", _PAPER),
    LayerMetric("shard.fanout_ms", "ms", "lower", "latency_p50_ms", _SHARD),
    LayerMetric("shard.merge_ms", "ms", "lower", "latency_p50_ms", _SHARD),
    LayerMetric("shard.shard_queries", "count", "lower", "shard.fanout_ms", _SHARD),
    LayerMetric("executor.task_kb", "KB", "lower", "shard.fanout_ms", _SHARD),
    LayerMetric("storage.freeze_s", "s", "lower", "setup_s", f"{_SERVE},{_SHARD}"),
    LayerMetric("storage.open_ms", "ms", "lower", "setup_s", f"{_SERVE},{_SHARD}"),
    LayerMetric("storage.oracle_frac", "fraction", "lower", "snapshot_mb", f"{_SERVE},{_SHARD}"),
    # Self time of each layer as a share of traced operation time: the
    # figures that show which layer a workload stresses.
    LayerMetric("api.share", "fraction", "lower", "latency_p50_ms", _SERVE),
    LayerMetric("service.share", "fraction", "lower", "latency_p50_ms", _ALL),
    LayerMetric("matchers.share", "fraction", "lower", "latency_p50_ms", _COLD),
    LayerMetric("clustering.share", "fraction", "lower", "throughput_qps", _PAPER),
    LayerMetric("mapping.share", "fraction", "lower", "throughput_qps", f"{_PAPER},{_SERVE}"),
    LayerMetric("shard.share", "fraction", "lower", "latency_p50_ms", _SHARD),
    LayerMetric("trace.unattributed_frac", "fraction", "lower", "none", _ALL),
    LayerMetric("trace.overhead_frac", "fraction", "lower", "none", _ALL),
)

#: Stands in for the latency of a failed operation: it missed every limit.
FAILED_LATENCY = sys.float_info.max


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    low, high = ordered[middle - 1], ordered[middle]
    # Two failed samples would overflow the mean; a failure reads as failed.
    return high if high == FAILED_LATENCY else (low + high) / 2


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``; with ``beyond`` samples or fewer there is
    no such percentile and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0, 100.0
    count = len(ordered)
    if count <= beyond:
        return ordered[-1], 100.0
    return ordered[count - beyond - 1], 100.0 * (count - beyond) / count


def ms(seconds: float) -> float:
    return seconds if seconds == FAILED_LATENCY else seconds * 1000.0


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
