"""Schema mappings and mapping problems.

A :class:`SchemaMapping` is a complete assignment of one repository node to
every personal-schema node (Definition 2's "1 to 1" element mappings), together
with the induced mapping subtree's edge count and the objective-function score.
A :class:`MappingProblem` bundles everything a generator needs: the personal
schema, the candidate sets (possibly restricted to one cluster), the distance
oracle over the repository, the objective function and the threshold ``δ``
(Definition 3's quadruple ``P = (s, R, Δ, δ)`` with the repository represented
by its candidate sets and oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.errors import MappingError
from repro.labeling.distance import RepositoryDistanceOracle
from repro.matchers.selection import MappingElement, MappingElementSets
from repro.objective.base import MappingEvaluation, ObjectiveFunction
from repro.schema.repository import RepositoryNodeRef
from repro.schema.tree import SchemaTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports model)
    from repro.mapping.engine import TopKPool
    from repro.resilience.deadline import Deadline


@dataclass(frozen=True)
class SchemaMapping:
    """A complete schema mapping ``s -> t`` with its evaluation.

    Attributes
    ----------
    assignment:
        One :class:`MappingElement` per personal node id.
    score:
        The objective-function value ``Δ(s, t)``.
    components:
        Per-hint breakdown of the score (e.g. ``sim`` and ``path``).
    target_edge_count:
        ``|Et|`` of the mapping subtree (union of the paths the personal
        schema's edges map to).
    tree_id:
        Repository tree the mapping lives in.
    cluster_id:
        Identifier of the cluster the mapping was generated from, or ``None``
        for non-clustered matching.
    """

    assignment: Mapping[int, MappingElement]
    score: float
    components: Mapping[str, float]
    target_edge_count: int
    tree_id: int
    cluster_id: Optional[int] = None

    def __post_init__(self) -> None:
        # Every ranking sort, merge and incumbent offer keys on the signature,
        # so it is derived once here rather than re-sorted per read.  It is
        # not a dataclass field, so equality and repr are unchanged.
        assignment = self.assignment
        object.__setattr__(
            self,
            "_signature",
            tuple([assignment[node_id].ref.global_id for node_id in sorted(assignment)]),
        )

    def element_pairs(self) -> List[Tuple[int, RepositoryNodeRef]]:
        """(personal node id, repository ref) pairs, sorted by personal node id."""
        return [(node_id, element.ref) for node_id, element in sorted(self.assignment.items())]

    def repository_global_ids(self) -> Tuple[int, ...]:
        """Global ids of the mapped repository nodes, ordered by personal node id."""
        return self._signature  # type: ignore[attr-defined]

    def signature(self) -> Tuple[int, ...]:
        """A canonical identity for deduplication across clusters."""
        return self._signature  # type: ignore[attr-defined]

    def describe(self, personal_schema: SchemaTree, repository=None) -> str:
        """A human-readable one-line description used by the examples."""
        parts = []
        for node_id, element in sorted(self.assignment.items()):
            personal_name = personal_schema.node(node_id).name
            if repository is not None:
                target_name = repository.node(element.ref).name
                parts.append(f"{personal_name}->{target_name}")
            else:
                parts.append(f"{personal_name}->g{element.ref.global_id}")
        return f"Δ={self.score:.3f} [{', '.join(parts)}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchemaMapping(score={self.score:.3f}, tree={self.tree_id}, nodes={self.repository_global_ids()})"


@dataclass
class MappingProblem:
    """Input to a mapping generator.

    ``candidates`` usually describes a single cluster (or, for the non-clustered
    baseline, a single repository tree); the generator enforces that every
    produced mapping stays within one repository tree regardless.

    ``top_k`` switches the pruning generators from "every mapping with
    ``Δ >= δ``" to "the ``k`` best mappings with ``Δ >= δ``": bounds are then
    additionally pruned against the ``k``-th best score found so far.  When
    several per-cluster problems of one query share a :class:`~repro.mapping.engine.TopKPool`
    via ``shared_pool``, that floor is shared across clusters — a good mapping
    found in one cluster prunes the others (see :mod:`repro.mapping.engine`
    for the exactness argument).  ``shared_pool`` is ignored unless ``top_k``
    is set.

    ``deadline`` bounds the search cooperatively: the generators poll it at
    their expansion points and, on expiry, stop expanding and return the
    mappings realized so far (the run's ``deadline_expired`` counter marks
    the truncation).  ``None`` — the default — changes nothing.
    """

    personal_schema: SchemaTree
    candidates: MappingElementSets
    oracle: RepositoryDistanceOracle
    objective: ObjectiveFunction
    delta: float
    cluster_id: Optional[int] = None
    require_injective: bool = True
    top_k: Optional[int] = None
    shared_pool: Optional["TopKPool"] = None
    deadline: Optional["Deadline"] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise MappingError(f"threshold delta must be in [0, 1], got {self.delta}")
        if self.top_k is not None and self.top_k < 1:
            raise MappingError(f"top_k must be at least 1 when given, got {self.top_k}")
        personal_ids = set(self.personal_schema.node_ids())
        candidate_ids = set(self.candidates.personal_node_ids)
        if candidate_ids != personal_ids:
            raise MappingError(
                "candidate sets do not cover the personal schema: "
                f"expected nodes {sorted(personal_ids)}, got {sorted(candidate_ids)}"
            )

    # -- helpers shared by the generators --------------------------------------

    def assignment_order(self) -> List[int]:
        """Personal node ids in breadth-first order.

        Assigning parents before children guarantees that, when a node is
        assigned, the personal edge towards its (already assigned) parent can
        immediately contribute its repository path to the partial ``|Et|``,
        which keeps the Branch-and-Bound path bound tight.  Among siblings the
        node with fewer candidates comes first (fail-first ordering).
        """
        sizes = self.candidates.sizes()
        order = list(self.personal_schema.breadth_first())
        root = order[0]
        rest = sorted(
            order[1:],
            key=lambda node_id: (self.personal_schema.depth(node_id), sizes.get(node_id, 0), node_id),
        )
        return [root, *rest]

    def personal_edges(self) -> List[Tuple[int, int]]:
        """The personal schema's edges as (parent id, child id) pairs."""
        edges = []
        for node_id in self.personal_schema.node_ids():
            parent = self.personal_schema.parent_id(node_id)
            if parent is not None:
                edges.append((parent, node_id))
        return edges

    def path_edges(self, first: RepositoryNodeRef, second: RepositoryNodeRef) -> int:
        """Edges of the repository path between two mapped nodes, as a bitmask.

        Bit ``c`` is set for the edge into child node ``c`` (see
        :class:`~repro.labeling.distance.TreeDistanceOracle`), so unions of
        paths are ``|`` and ``|Et|`` is a popcount.
        """
        edges = self.oracle.path_mask(first, second)
        if edges is None:
            raise MappingError(
                f"nodes {first.global_id} and {second.global_id} are in different trees; "
                "a schema mapping cannot span repository trees"
            )
        return edges

    def target_edge_count(self, assignment: Mapping[int, MappingElement]) -> int:
        """``|Et|`` for a (partial or complete) assignment.

        Only personal edges with both endpoints assigned contribute; the union
        over their repository paths is the mapping subtree built so far.
        """
        union = 0
        for parent_id, child_id in self.personal_edges():
            if parent_id in assignment and child_id in assignment:
                union |= self.path_edges(assignment[parent_id].ref, assignment[child_id].ref)
        return union.bit_count()

    def best_similarity_per_node(self) -> Dict[int, float]:
        """The maximum candidate similarity available for each personal node."""
        best: Dict[int, float] = {}
        for node_id, elements in self.candidates:
            best[node_id] = max((element.similarity for element in elements), default=0.0)
        return best

    def evaluate(self, assignment: Mapping[int, MappingElement]) -> SchemaMapping:
        """Score a complete assignment and wrap it as a :class:`SchemaMapping`.

        The checked reference: it verifies that the assignment is complete and
        lies in one tree, and recomputes ``|Et|`` from the personal edges.  The
        search engine scores its leaves from the path mask it already carries
        (:meth:`~repro.mapping.engine.TreeSearchContext.accept`); the tests pin
        the two against each other.
        """
        if len(assignment) != self.personal_schema.node_count:
            raise MappingError(
                f"assignment covers {len(assignment)} of {self.personal_schema.node_count} personal nodes"
            )
        tree_ids = {element.ref.tree_id for element in assignment.values()}
        if len(tree_ids) != 1:
            raise MappingError(f"assignment spans repository trees {sorted(tree_ids)}")
        edge_count = self.target_edge_count(assignment)
        evaluation = self.objective.evaluate(self.personal_schema, assignment, edge_count)
        return self.mapping(assignment, evaluation, next(iter(tree_ids)))

    def mapping(
        self,
        assignment: Mapping[int, MappingElement],
        evaluation: MappingEvaluation,
        tree_id: int,
    ) -> SchemaMapping:
        """Wrap an evaluated complete assignment of repository tree ``tree_id``."""
        return SchemaMapping(
            assignment=dict(assignment),
            score=evaluation.score,
            components=dict(evaluation.components),
            target_edge_count=evaluation.target_edge_count,
            tree_id=tree_id,
            cluster_id=self.cluster_id,
        )
