"""Node labeling schemes for constant-time structural queries.

The paper relies on node labeling techniques (Kaplan & Milo) "to provide
low-cost computation of path lengths" for both the clustering distance measure
and the path-length hint of the objective function.  This package provides:

* :class:`~repro.labeling.distance.TreeDistanceOracle` — one ancestor bitmask
  per node (bit ``c`` set for every root-path edge, identified by its child
  id ``c``); the path between two nodes is the xor of their masks and its
  length the popcount;
* :class:`~repro.labeling.distance.RepositoryDistanceOracle` — per-tree oracles
  over a whole repository, treating nodes of different trees as unreachable;
  the oracles themselves are derived state cached on the repository and
  rebuilt per process, never persisted;
* :class:`~repro.labeling.interval.IntervalLabeling` — pre/post-order interval
  labels answering ancestor/descendant queries in O(1), kept as an
  independent reference the tests check the masks against.
"""

from repro.labeling.interval import IntervalLabeling
from repro.labeling.distance import RepositoryDistanceOracle, TreeDistanceOracle

__all__ = [
    "IntervalLabeling",
    "RepositoryDistanceOracle",
    "TreeDistanceOracle",
]
