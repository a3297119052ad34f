"""Constant-time tree distance (path length) oracles from ancestor bitmasks.

``TreeDistanceOracle`` labels every node ``x`` of one tree with a Python int
``A[x]`` whose bit ``c`` is set for every edge on ``x``'s root path, an edge
being identified by its child node id.  Shared ancestors cancel under xor, so
the edges of the path between ``u`` and ``v`` are ``A[u] ^ A[v]``, a union of
paths is ``|`` and a path length is ``int.bit_count()``.

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

from typing import List, Optional

from repro.errors import LabelingError, UnknownNodeError
from repro.schema.repository import RepositoryNodeRef, SchemaRepository
from repro.schema.tree import SchemaTree


class TreeDistanceOracle:
    """O(1) path-length and path-edge queries for a single schema tree.

    Holds only the ancestor masks and the tree's name, never the tree itself.
    """

    __slots__ = ("_masks", "_tree_name")

    def __init__(self, tree: SchemaTree) -> None:
        if tree.node_count == 0:
            raise LabelingError(f"cannot build a distance oracle over empty tree {tree.name!r}")
        self._tree_name = tree.name
        # Every parent id precedes its child (a SchemaTree invariant), so one
        # forward pass sees each parent's mask before its children need it.
        # The root is node 0 and has no parent edge: its mask stays 0.
        masks: List[int] = [0] * tree.node_count
        parent_id = tree.parent_id
        for node_id in range(1, tree.node_count):
            masks[node_id] = masks[parent_id(node_id)] | (1 << node_id)  # type: ignore[index]
        self._masks = masks

    def mask(self, node_id: int) -> int:
        """The node's ancestor mask ``A[x]``: its root path's edges as a bitmask.

        ``path_mask(u, v) == mask(u) ^ mask(v)``; a search that meets the same
        node in many paths looks its mask up once.
        """
        masks = self._masks
        if 0 <= node_id < len(masks):
            return masks[node_id]
        raise UnknownNodeError(node_id, context=f"distance oracle of tree {self._tree_name!r}")

    def path_mask(self, first_id: int, second_id: int) -> int:
        """Edges of the path between two nodes as a bitmask over child node ids."""
        masks = self._masks
        # Explicit bounds: a plain list would silently wrap a negative id.
        if 0 <= first_id < len(masks) and 0 <= second_id < len(masks):
            return masks[first_id] ^ masks[second_id]
        unknown = first_id if not 0 <= first_id < len(masks) else second_id
        raise UnknownNodeError(unknown, context=f"distance oracle of tree {self._tree_name!r}")

    def distance(self, first_id: int, second_id: int) -> int:
        """Path length (number of edges) between two nodes."""
        return self.path_mask(first_id, second_id).bit_count()


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

    def path_mask(self, first: RepositoryNodeRef, second: RepositoryNodeRef) -> Optional[int]:
        """Path edges (a bitmask over child node ids) between two nodes, ``None`` across trees."""
        if first.tree_id != second.tree_id:
            return None
        return self.oracle(first.tree_id).path_mask(first.node_id, second.node_id)
