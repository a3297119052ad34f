"""Constant-time tree distance (path length) oracles.

``TreeDistanceOracle`` preprocesses one tree with an Euler tour and a sparse
table over the tour's depth sequence; lowest-common-ancestor queries then take
two array lookups, and ``distance(u, v) = depth(u) + depth(v) - 2 * depth(lca)``.

``RepositoryDistanceOracle`` answers distance queries between arbitrary
repository nodes through the repository's lazily built per-tree oracles,
returning ``None`` for nodes of different trees (the clustering distance
treats those as infinitely far apart, so clusters never span trees).

Both the k-means clusterer (distance measure, Sec. 4) and the Bellflower
objective function (path-length hint, Eq. 2) are built on these oracles, which
is what the paper means by using node labeling "to provide low-cost computation
of path lengths".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import LabelingError, UnknownNodeError
from repro.labeling.sparse_table import SparseTable
from repro.schema.repository import RepositoryNodeRef, SchemaRepository
from repro.schema.tree import SchemaTree


class TreeDistanceOracle:
    """O(1) LCA / path-length queries for a single schema tree."""

    def __init__(self, tree: SchemaTree) -> None:
        if tree.node_count == 0:
            raise LabelingError(f"cannot build a distance oracle over empty tree {tree.name!r}")
        self.tree = tree
        self._euler_nodes: List[int] = []
        self._euler_depths: List[int] = []
        self._first_occurrence: List[int] = [-1] * tree.node_count
        self._build_euler_tour()
        self._rmq = SparseTable(self._euler_depths)

    def _build_euler_tour(self) -> None:
        # Iterative Euler tour: every time a node is entered or returned to
        # after a child, it is appended to the tour.  Depths are carried on the
        # stack so the tour never re-queries the tree per entry (a tour has
        # 2n - 1 entries, and each depth lookup used to cost a bounds-checked
        # method call).
        tree = self.tree
        stack: List[Tuple[int, int, int]] = [(tree.root_id, 0, 0)]
        children_cache: Dict[int, List[int]] = {}
        while stack:
            node_id, child_index, depth = stack.pop()
            if child_index == 0:
                if self._first_occurrence[node_id] == -1:
                    self._first_occurrence[node_id] = len(self._euler_nodes)
            self._euler_nodes.append(node_id)
            self._euler_depths.append(depth)
            children = children_cache.get(node_id)
            if children is None:
                children = children_cache[node_id] = tree.children_ids(node_id)
            if child_index < len(children):
                stack.append((node_id, child_index + 1, depth))
                stack.append((children[child_index], 0, depth + 1))

    # -- queries -------------------------------------------------------------

    def lca(self, first_id: int, second_id: int) -> int:
        """Lowest common ancestor of two nodes."""
        for node_id in (first_id, second_id):
            if not self.tree.has_node(node_id):
                raise UnknownNodeError(node_id, context=f"distance oracle of tree {self.tree.name!r}")
        low = self._first_occurrence[first_id]
        high = self._first_occurrence[second_id]
        index = self._rmq.argmin(low, high)
        return self._euler_nodes[index]

    def depth(self, node_id: int) -> int:
        return self.tree.depth(node_id)

    def distance(self, first_id: int, second_id: int) -> int:
        """Path length (number of edges) between two nodes."""
        if first_id == second_id:
            if not self.tree.has_node(first_id):
                raise UnknownNodeError(first_id, context=f"distance oracle of tree {self.tree.name!r}")
            return 0
        lca = self.lca(first_id, second_id)
        return self.tree.depth(first_id) + self.tree.depth(second_id) - 2 * self.tree.depth(lca)

    def path_edge_ids(self, first_id: int, second_id: int) -> Set[int]:
        """Edges of the path between two nodes, identified by child node id.

        Uses the LCA to walk both root paths, avoiding a full path search.  The
        result feeds the union that determines ``|Et|`` of a mapping subtree.
        """
        lca = self.lca(first_id, second_id)
        edges: Set[int] = set()
        for start in (first_id, second_id):
            current = start
            while current != lca:
                edges.add(current)
                parent = self.tree.parent_id(current)
                if parent is None:  # pragma: no cover - LCA guarantees termination
                    raise LabelingError(
                        f"walked past the root from node {start} towards LCA {lca} in tree {self.tree.name!r}"
                    )
                current = parent
        return edges


class RepositoryDistanceOracle:
    """Distance queries over a whole repository, one tree oracle per tree.

    The facade holds no state of its own: the per-tree oracles are derived
    state owned by the repository (``SchemaRepository._oracle_cache``), built
    on first use in each process, re-keyed by ``remove_tree`` and never
    persisted or pickled.  Every pipeline over one repository object therefore
    shares one oracle per tree, however it mutates the repository.
    """

    def __init__(self, repository: SchemaRepository) -> None:
        self.repository = repository

    def oracle(self, tree_id: int) -> TreeDistanceOracle:
        """The tree's oracle, built on first use.

        ``setdefault`` publishes a first build atomically, so threads racing
        on an unbuilt tree still share one instance.
        """
        cache = self.repository._oracle_cache
        oracle = cache.get(tree_id)
        if oracle is None:
            oracle = cache.setdefault(tree_id, TreeDistanceOracle(self.repository.tree(tree_id)))
        return oracle

    def build_all(self) -> None:
        """Materialize the oracle of every repository tree (service warm-up)."""
        for tree in self.repository.trees():
            self.oracle(tree.tree_id)

    @property
    def built_oracle_count(self) -> int:
        """How many per-tree oracles have been materialized so far."""
        return len(self.repository._oracle_cache)

    def distance(self, first: RepositoryNodeRef, second: RepositoryNodeRef) -> Optional[int]:
        """Path length between two repository nodes, ``None`` across trees."""
        if first.tree_id != second.tree_id:
            return None
        return self.oracle(first.tree_id).distance(first.node_id, second.node_id)

    def lca(self, first: RepositoryNodeRef, second: RepositoryNodeRef) -> Optional[RepositoryNodeRef]:
        """LCA of two repository nodes as a node ref, ``None`` across trees."""
        if first.tree_id != second.tree_id:
            return None
        lca_node = self.oracle(first.tree_id).lca(first.node_id, second.node_id)
        return self.repository.ref(first.tree_id, lca_node)

    def path_edge_ids(self, first: RepositoryNodeRef, second: RepositoryNodeRef) -> Optional[Set[int]]:
        """Path edge set (child node ids) between two nodes of the same tree."""
        if first.tree_id != second.tree_id:
            return None
        return self.oracle(first.tree_id).path_edge_ids(first.node_id, second.node_id)
