"""Bellflower's objective function (Eqs. 1-3 of the paper).

``Δsim`` (Eq. 1) averages the element-level name similarities of the mapping.
``Δpath`` (Eq. 2) penalizes mappings whose subtree ``t`` uses more edges than
the personal schema: ``Δpath = 1 - (|Et| - |Es|) / (|Es| * K)`` with a
normalization constant ``K`` derived from "other constraints in the system
(e.g. the maximum length of a path)".  ``Δ`` (Eq. 3) is the weighted sum
``α·Δsim + (1-α)·Δpath``.

Both hints are clamped into ``[0, 1]``: a mapping subtree can in principle use
*fewer* edges than ``|Es|`` when personal-schema edges map to overlapping
paths, which would push Eq. 2 above 1, and extremely stretched mappings would
push it below 0.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.errors import ObjectiveError
from repro.matchers.selection import MappingElement
from repro.objective.base import MappingEvaluation, ObjectiveFunction
from repro.schema.tree import SchemaTree


def _clamp_unit(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


class BellflowerObjective(ObjectiveFunction):
    """``Δ(s, t) = α·Δsim(s, t) + (1 - α)·Δpath(s, t)``.

    Parameters
    ----------
    alpha:
        Relative importance of the name-similarity hint.  The paper's Figure 6
        experiment varies this over 0.25 / 0.50 / 0.75.
    path_normalization:
        The constant ``K`` of Eq. 2.  It should be at least the longest
        personal-schema-edge-to-path stretch the system considers meaningful;
        larger values make the path hint more forgiving.
    """

    name = "bellflower"

    def __init__(self, alpha: float = 0.5, path_normalization: float = 4.0) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ObjectiveError(f"alpha must be in [0, 1], got {alpha}")
        if path_normalization <= 0:
            raise ObjectiveError(f"path normalization constant K must be positive, got {path_normalization}")
        self.alpha = alpha
        self.path_normalization = path_normalization

    # -- hints ---------------------------------------------------------------

    def name_similarity(self, personal_schema: SchemaTree, assignment: Mapping[int, MappingElement]) -> float:
        """Eq. 1: the mean element similarity over all personal nodes."""
        node_count = personal_schema.node_count
        if node_count == 0:
            raise ObjectiveError("cannot evaluate a mapping for an empty personal schema")
        total = sum([element.similarity for element in assignment.values()])
        return total / node_count

    def path_similarity(self, personal_schema: SchemaTree, target_edge_count: int) -> float:
        """Eq. 2: penalize mapping subtrees that stretch the personal schema's edges."""
        personal_edges = personal_schema.edge_count
        if personal_edges == 0:
            # A single-node personal schema has no paths to preserve; the path
            # hint is trivially satisfied.
            return 1.0
        stretched = (target_edge_count - personal_edges) / (personal_edges * self.path_normalization)
        return _clamp_unit(1.0 - stretched)

    # -- ObjectiveFunction interface ------------------------------------------

    def evaluate(
        self,
        personal_schema: SchemaTree,
        assignment: Mapping[int, MappingElement],
        target_edge_count: int,
    ) -> MappingEvaluation:
        if len(assignment) != personal_schema.node_count:
            raise ObjectiveError(
                f"complete mapping expected ({personal_schema.node_count} nodes), "
                f"got an assignment of {len(assignment)} nodes"
            )
        sim = self.name_similarity(personal_schema, assignment)
        path = self.path_similarity(personal_schema, target_edge_count)
        score = self.alpha * sim + (1.0 - self.alpha) * path
        return MappingEvaluation(
            score=score,
            components={"sim": sim, "path": path},
            target_edge_count=target_edge_count,
        )

    def bound(
        self,
        personal_schema: SchemaTree,
        assignment: Mapping[int, MappingElement],
        best_remaining_similarity: Mapping[int, float],
        partial_target_edge_count: int,
    ) -> float:
        """Admissible upper bound for any completion of a partial assignment.

        * The Δsim part assumes every unassigned node will reach the best
          similarity still available among its candidates.
        * The Δpath part uses the edges already forced by the assigned nodes:
          the final ``|Et|`` can only grow, and Δpath is non-increasing in
          ``|Et|``, so evaluating Eq. 2 at the partial edge count bounds it from
          above.
        """
        node_count = personal_schema.node_count
        assigned_similarity = sum(element.similarity for element in assignment.values())
        optimistic_similarity = assigned_similarity + sum(best_remaining_similarity.values())
        sim_bound = optimistic_similarity / node_count if node_count else 0.0
        path_bound = self.path_similarity(personal_schema, partial_target_edge_count)
        return self.alpha * _clamp_unit(sim_bound) + (1.0 - self.alpha) * path_bound

    def fast_bound(
        self,
        personal_schema: SchemaTree,
        assigned_similarity: float,
        remaining_similarity: float,
        partial_target_edge_count: int,
    ) -> float:
        """O(1) :meth:`bound`: Eq. 1/2 only need the two similarity totals.

        Bit-identical to :meth:`bound` — the engine accumulates
        ``assigned_similarity`` and ``remaining_similarity`` with the same
        left-to-right addition order the generic path's ``sum`` calls use.
        """
        node_count = personal_schema.node_count
        optimistic_similarity = assigned_similarity + remaining_similarity
        sim_bound = optimistic_similarity / node_count if node_count else 0.0
        path_bound = self.path_similarity(personal_schema, partial_target_edge_count)
        return self.alpha * _clamp_unit(sim_bound) + (1.0 - self.alpha) * path_bound

    def bound_table(self, personal_schema: SchemaTree):
        """Packed per-edge-count table of :meth:`fast_bound`'s path term.

        Declines (``None``) for subclasses that override the baked-in pieces;
        see :func:`repro.kernels.objective.bellflower_bound_table`.
        """
        from repro.kernels.objective import bellflower_bound_table

        return bellflower_bound_table(self, personal_schema)


class NameOnlyObjective(BellflowerObjective):
    """Δ = Δsim: the degenerate α = 1 case, used in ablations and tests."""

    name = "name-only"

    def __init__(self) -> None:
        super().__init__(alpha=1.0, path_normalization=1.0)


class PathOnlyObjective(BellflowerObjective):
    """Δ = Δpath: the degenerate α = 0 case, used in ablations and tests."""

    name = "path-only"

    def __init__(self, path_normalization: float = 4.0) -> None:
        super().__init__(alpha=0.0, path_normalization=path_normalization)
