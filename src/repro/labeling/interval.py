"""Pre/post-order interval labels for O(1) ancestor queries.

Every node receives an interval ``[start, end]`` such that node ``a`` is an
ancestor of (or equal to) node ``b`` exactly when ``a``'s interval contains
``b``'s.  This is the simplest of the labeling schemes surveyed by Kaplan and
Milo.  Nothing in the library calls it at runtime: it is kept as an
independent reference that the tests check the ancestor-mask distance oracle
against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import LabelingError, UnknownNodeError
from repro.schema.tree import SchemaTree


class IntervalLabeling:
    """Containment interval labels for one schema tree."""

    def __init__(self, tree: SchemaTree) -> None:
        if tree.node_count == 0:
            raise LabelingError(f"cannot label empty tree {tree.name!r}")
        self.tree = tree
        self._start: List[int] = [0] * tree.node_count
        self._end: List[int] = [0] * tree.node_count
        self._compute()

    def _compute(self) -> None:
        counter = 0
        # Iterative DFS emitting entry (start) and exit (end) ticks.
        stack: List[Tuple[int, bool]] = [(self.tree.root_id, False)]
        while stack:
            node_id, exiting = stack.pop()
            if exiting:
                self._end[node_id] = counter
                counter += 1
                continue
            self._start[node_id] = counter
            counter += 1
            stack.append((node_id, True))
            for child_id in reversed(self.tree.children_ids(node_id)):
                stack.append((child_id, False))

    def label(self, node_id: int) -> Tuple[int, int]:
        """The ``(start, end)`` interval of a node."""
        if not self.tree.has_node(node_id):
            raise UnknownNodeError(node_id, context=f"interval labeling of tree {self.tree.name!r}")
        return (self._start[node_id], self._end[node_id])

    def is_ancestor_or_self(self, ancestor_id: int, descendant_id: int) -> bool:
        """True when ``ancestor_id`` is ``descendant_id`` or one of its ancestors."""
        a_start, a_end = self.label(ancestor_id)
        d_start, d_end = self.label(descendant_id)
        return a_start <= d_start and d_end <= a_end

    def is_ancestor(self, ancestor_id: int, descendant_id: int) -> bool:
        """Strict ancestor test."""
        return ancestor_id != descendant_id and self.is_ancestor_or_self(ancestor_id, descendant_id)

    def are_disjoint(self, first_id: int, second_id: int) -> bool:
        """True when neither node is an ancestor of the other."""
        return not self.is_ancestor_or_self(first_id, second_id) and not self.is_ancestor_or_self(
            second_id, first_id
        )
