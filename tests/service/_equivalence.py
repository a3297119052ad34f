"""Shared equivalence keys for the service test modules.

"Bit-identical" claims are asserted through these canonical projections; keep
them in one place so every service test checks the same identity.  (The
benchmark and example scripts carry their own minimal copies — they must stay
runnable standalone.)
"""

from __future__ import annotations


def result_key(result):
    """Ranked mappings as (score, signature) pairs — the mapping identity."""
    return result.ranking_key()


def candidates_key(sets):
    """MappingElementSets as per-node (global id, similarity) lists."""
    return {
        node_id: [(e.ref.global_id, e.similarity) for e in sets.elements_for(node_id)]
        for node_id in sets.personal_node_ids
    }


def cluster_key(result):
    """Cluster reports as comparable tuples."""
    return [
        (report.cluster_id, report.tree_id, report.member_count, report.search_space)
        for report in result.cluster_reports
    ]


def path_records_key(result):
    """Per-mapping path evidence: subtree edge counts and score components.

    ``target_edge_count`` is the ``|Et|`` the objective's path hint was
    evaluated at; the components carry the exact ``sim``/``path`` breakdown.
    Two results equal under this key computed identical mapping subtrees, not
    just identical final scores.
    """
    return [
        (
            mapping.tree_id,
            mapping.target_edge_count,
            tuple(sorted(mapping.components.items())),
            mapping.element_pairs(),
        )
        for mapping in result.mappings
    ]


def counters_key(result):
    """The result's counter set as a sorted, comparable tuple."""
    return tuple(sorted(result.counters.as_dict().items()))


def execution_backends(max_workers=2):
    """The four execution regimes every service query must agree across.

    Yields ``(name, executor_factory, frozen)`` triples; ``executor`` is
    ``None`` for the serial regime.  The ``process+frozen`` regime reuses the
    process executor but serves a service loaded from a frozen file, so
    workers reopen the file instead of unpickling a copy of the repository.
    """
    from repro.utils.executor import ProcessPoolTaskExecutor, ThreadPoolTaskExecutor

    return [
        ("serial", lambda: None, False),
        ("thread", lambda: ThreadPoolTaskExecutor(max_workers=max_workers), False),
        ("process", lambda: ProcessPoolTaskExecutor(max_workers=max_workers), False),
        (
            "process+frozen",
            lambda: ProcessPoolTaskExecutor(max_workers=max_workers),
            True,
        ),
    ]
