"""Ranking and merging of schema mappings.

Clustered matching generates mappings per cluster and then "places them all
together in a single ordered list" (step 5 of Fig. 3).  The helpers here merge
per-cluster results, deduplicate mappings discovered in more than one cluster
(possible when clusters overlap after reclustering moves), and produce the
ranked lists and top-N views the personal-schema-querying user sees.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.mapping.model import SchemaMapping


def ranking_sort_key(mapping: SchemaMapping) -> Tuple[float, int, int, Tuple[int, ...]]:
    """The canonical ranking key: score (descending), cluster id, signature.

    Every ranked mapping list in the library sorts with this one key so that
    equal-score mappings rank identically no matter which executor (serial,
    thread pool, process pool) produced them or in which order per-cluster
    results arrived.  The cluster id breaks ties before the signature so that
    deduplication keeps a deterministic instance when the same mapping is
    discovered in several overlapping clusters; clusterless mappings
    (``cluster_id is None``) sort after clustered ones of the same score.
    """
    cluster_id = mapping.cluster_id
    return (
        -mapping.score,
        1 if cluster_id is None else 0,
        0 if cluster_id is None else cluster_id,
        mapping.signature(),
    )


def merge_ranked(groups: Iterable[Sequence[SchemaMapping]], deduplicate: bool = True) -> List[SchemaMapping]:
    """Merge several mapping lists into one list ordered by descending score.

    When ``deduplicate`` is set, mappings with an identical signature (the same
    repository nodes for the same personal nodes) are reported once, keeping
    the highest-scoring instance (ties broken by the canonical ranking key,
    i.e. the lowest cluster id wins).
    """
    merged: List[SchemaMapping] = []
    for group in groups:
        merged.extend(group)
    merged.sort(key=ranking_sort_key)
    if not deduplicate:
        return merged
    seen: set = set()
    unique: List[SchemaMapping] = []
    for mapping in merged:
        signature = mapping.signature()
        if signature in seen:
            continue
        seen.add(signature)
        unique.append(mapping)
    return unique


def top_n(mappings: Sequence[SchemaMapping], n: int) -> List[SchemaMapping]:
    """The ``n`` best mappings (the list the interactive user is shown first)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    ordered = sorted(mappings, key=ranking_sort_key)
    return ordered[:n]


def above_threshold(mappings: Sequence[SchemaMapping], delta: float) -> List[SchemaMapping]:
    """Mappings whose score clears ``delta`` (kept in their original order)."""
    return [mapping for mapping in mappings if mapping.score >= delta]


def score_histogram(mappings: Sequence[SchemaMapping], bin_width: float = 0.05) -> Dict[float, int]:
    """Counts of mappings per score bin — used by the preservation-curve reports.

    A score on a bin edge belongs to the bin that starts there.  The quotient
    is rounded before flooring because binary floats land edges just below
    the integer (``0.15 / 0.05 == 2.9999999999999996``).
    """
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    histogram: Dict[float, int] = {}
    for mapping in mappings:
        bucket = round(math.floor(round(mapping.score / bin_width, 9)) * bin_width, 10)
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return dict(sorted(histogram.items()))
