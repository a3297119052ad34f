"""Node labeling schemes for constant-time structural queries.

The paper relies on node labeling techniques (Kaplan & Milo) "to provide
low-cost computation of path lengths" for both the clustering distance measure
and the path-length hint of the objective function.  This package provides:

* :class:`~repro.labeling.interval.IntervalLabeling` — pre/post-order interval
  labels answering ancestor/descendant queries in O(1);
* :class:`~repro.labeling.sparse_table.SparseTable` — static range-minimum
  queries in O(1) after O(n log n) preprocessing;
* :class:`~repro.labeling.distance.TreeDistanceOracle` — Euler-tour + sparse
  table LCA, giving O(1) tree distance (path length) queries;
* :class:`~repro.labeling.distance.RepositoryDistanceOracle` — per-tree oracles
  over a whole repository, treating nodes of different trees as unreachable;
  the oracles themselves are derived state cached on the repository and
  rebuilt per process, never persisted.
"""

from repro.labeling.interval import IntervalLabeling
from repro.labeling.sparse_table import SparseTable
from repro.labeling.distance import RepositoryDistanceOracle, TreeDistanceOracle

__all__ = [
    "IntervalLabeling",
    "RepositoryDistanceOracle",
    "SparseTable",
    "TreeDistanceOracle",
]
