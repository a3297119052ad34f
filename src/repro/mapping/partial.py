"""Partial schema mappings (the paper's future-work extension).

Strictly following Definition 2, a cluster can only produce schema mappings if
it contains at least one mapping element for *every* personal-schema node; the
paper notes that non-useful clusters could instead produce *partial* mappings —
"such partial mappings might, nevertheless, be valuable to the user" — and
leaves this as future research.

This module implements that extension.  A :class:`PartialSchemaMapping` maps a
subset of the personal-schema nodes; its score is the Bellflower objective
evaluated as if the uncovered nodes contributed zero name similarity (so a
partial mapping can never outrank a complete mapping with the same per-node
quality), and the path hint only considers personal edges whose two endpoints
are both covered.  :class:`PartialMappingGenerator` enumerates partial mappings
with a Branch-and-Bound search analogous to the complete-mapping generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import MappingError
from repro.matchers.selection import MappingElement
from repro.mapping.base import GenerationResult
from repro.mapping.model import MappingProblem
from repro.mapping.support import incremental_path_edges
from repro.objective.bellflower import BellflowerObjective


@dataclass(frozen=True)
class PartialSchemaMapping:
    """A mapping of a subset of the personal schema's nodes.

    Attributes
    ----------
    assignment:
        Mapping elements for the covered personal nodes only.
    score:
        Objective value with uncovered nodes counted as zero-similarity.
    coverage:
        Fraction of personal nodes covered (1.0 would be a complete mapping).
    tree_id:
        Repository tree the mapping lives in.
    cluster_id:
        Cluster the mapping was generated from, if any.
    """

    assignment: Mapping[int, MappingElement]
    score: float
    coverage: float
    target_edge_count: int
    tree_id: int
    cluster_id: Optional[int] = None

    def covered_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self.assignment))

    def signature(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((node_id, element.ref.global_id) for node_id, element in sorted(self.assignment.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartialSchemaMapping(score={self.score:.3f}, coverage={self.coverage:.2f}, "
            f"nodes={self.covered_nodes()})"
        )


class PartialMappingGenerator:
    """Branch-and-Bound enumeration of partial mappings in (possibly non-useful) clusters.

    Parameters
    ----------
    min_coverage:
        Minimum fraction of personal nodes a partial mapping must cover to be
        reported (default: at least half, rounded up, so single-element
        "mappings" do not flood the result list).
    delta:
        Optional score threshold; ``None`` (the default) reports every partial
        mapping that reaches the coverage floor (threshold 0.0).  The problem's
        own ``delta`` is deliberately not reused: a partial mapping over k of n
        nodes scores at most ``α·k/n + (1-α)`` even with perfect matches.
    """

    name = "partial-branch-and-bound"

    def __init__(self, min_coverage: float = 0.5, delta: Optional[float] = None) -> None:
        if not 0.0 < min_coverage <= 1.0:
            raise MappingError(f"min_coverage must be in (0, 1], got {min_coverage}")
        self.min_coverage = min_coverage
        self.delta = delta

    def generate(self, problem: MappingProblem) -> Tuple[List[PartialSchemaMapping], GenerationResult]:
        """Enumerate partial mappings; returns (partial mappings, counters)."""
        if not isinstance(problem.objective, BellflowerObjective):
            raise MappingError("partial mapping generation requires a BellflowerObjective")
        started = time.perf_counter()
        result = GenerationResult()
        partials: List[PartialSchemaMapping] = []

        personal = problem.personal_schema
        node_count = personal.node_count
        min_nodes = max(1, int(round(self.min_coverage * node_count)))
        threshold = self.delta if self.delta is not None else 0.0

        # Group candidates per tree; unlike complete mappings, a tree qualifies
        # as soon as it has candidates for min_nodes personal nodes.
        per_tree: Dict[int, Dict[int, List[MappingElement]]] = {}
        for node_id, elements in problem.candidates:
            for element in elements:
                per_tree.setdefault(element.ref.tree_id, {}).setdefault(node_id, []).append(element)

        objective = problem.objective
        for tree_id in sorted(per_tree):
            groups = per_tree[tree_id]
            if len(groups) < min_nodes:
                continue
            covered_order = sorted(groups, key=lambda node_id: (len(groups[node_id]), node_id))
            for node_id in covered_order:
                groups[node_id].sort(key=lambda e: (-e.similarity, e.ref.global_id))
            self._search_tree(
                problem, objective, groups, covered_order, min_nodes, threshold, partials, result
            )

        partials.sort(key=lambda mapping: (-mapping.score, -mapping.coverage, mapping.signature()))
        result.elapsed_seconds = time.perf_counter() - started
        return partials, result

    # -- search -------------------------------------------------------------------

    def _score(
        self,
        problem: MappingProblem,
        objective: BellflowerObjective,
        assignment: Dict[int, MappingElement],
        path_edges: int,
    ) -> float:
        """Objective value with uncovered nodes contributing zero similarity.

        Only personal edges with both endpoints covered contribute paths, which
        is exactly what the ``path_edges`` mask accumulates; Δpath compares
        that union against the covered edge count so partially covered
        structure is not penalized for edges it never attempted to map.
        """
        personal = problem.personal_schema
        sim_total = sum(element.similarity for element in assignment.values())
        sim = sim_total / personal.node_count
        covered_edges = sum(
            1 for parent, child in problem.personal_edges() if parent in assignment and child in assignment
        )
        if covered_edges == 0:
            path = 1.0
        else:
            stretched = (path_edges.bit_count() - covered_edges) / (covered_edges * objective.path_normalization)
            path = min(1.0, max(0.0, 1.0 - stretched))
        return objective.alpha * sim + (1.0 - objective.alpha) * path

    def _search_tree(
        self,
        problem: MappingProblem,
        objective: BellflowerObjective,
        groups: Dict[int, List[MappingElement]],
        order: List[int],
        min_nodes: int,
        threshold: float,
        partials: List[PartialSchemaMapping],
        result: GenerationResult,
    ) -> None:
        personal_node_count = problem.personal_schema.node_count
        assignment: Dict[int, MappingElement] = {}
        used_globals: Set[int] = set()

        def emit(path_edges: int) -> None:
            if len(assignment) < min_nodes:
                return
            score = self._score(problem, objective, assignment, path_edges)
            result.counters.increment("evaluated_partial_mappings")
            if score < threshold:
                return
            partials.append(
                PartialSchemaMapping(
                    assignment=dict(assignment),
                    score=score,
                    coverage=len(assignment) / personal_node_count,
                    target_edge_count=path_edges.bit_count(),
                    tree_id=next(iter(assignment.values())).ref.tree_id,
                    cluster_id=problem.cluster_id,
                )
            )

        def recurse(level: int, path_edges: int) -> None:
            if level == len(order):
                emit(path_edges)
                return
            node_id = order[level]
            # Option 1: leave this personal node uncovered (only if enough
            # remaining nodes can still reach the coverage floor).
            remaining_after = len(order) - level - 1
            if len(assignment) + remaining_after >= min_nodes:
                recurse(level + 1, path_edges)
            # Option 2: assign one of its candidates.
            for element in groups[node_id]:
                if problem.require_injective and element.ref.global_id in used_globals:
                    continue
                child_edges = path_edges | incremental_path_edges(problem, assignment, node_id, element)
                assignment[node_id] = element
                used_globals.add(element.ref.global_id)
                result.counters.increment("partial_mappings")
                recurse(level + 1, child_edges)
                del assignment[node_id]
                used_globals.discard(element.ref.global_id)

        recurse(0, 0)


def partial_mappings_for_cluster(
    problem: MappingProblem,
    min_coverage: float = 0.5,
    delta: Optional[float] = None,
) -> List[PartialSchemaMapping]:
    """Convenience wrapper: the partial mappings of one cluster's problem."""
    generator = PartialMappingGenerator(min_coverage=min_coverage, delta=delta)
    partials, _ = generator.generate(problem)
    return partials
