"""Clusters of mapping elements.

A cluster is a set of repository nodes (mapping-element targets) that lie close
to each other in one repository tree, represented by a centroid node.  A
cluster is *useful* when it contains at least one candidate for every personal
schema node — only useful clusters can produce complete schema mappings
(Sec. 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.errors import ClusteringError
from repro.matchers.selection import MappingElement, MappingElementSets
from repro.schema.repository import RepositoryNodeRef


@dataclass
class Cluster:
    """One cluster of mapping elements.

    Attributes
    ----------
    cluster_id:
        Identifier unique within a :class:`ClusterSet`.
    tree_id:
        The repository tree all members belong to (clusters never span trees
        because the tree distance between trees is infinite).
    members:
        The repository nodes in the cluster.
    centroid:
        The representative node (a *medoid*: always one of the members).
    """

    cluster_id: int
    tree_id: int
    members: Set[RepositoryNodeRef] = field(default_factory=set)
    centroid: Optional[RepositoryNodeRef] = None

    def __post_init__(self) -> None:
        for member in self.members:
            if member.tree_id != self.tree_id:
                raise ClusteringError(
                    f"cluster {self.cluster_id} is in tree {self.tree_id} but member "
                    f"{member.global_id} is in tree {member.tree_id}"
                )
        if self.centroid is not None and self.centroid.tree_id != self.tree_id:
            raise ClusteringError(
                f"cluster {self.cluster_id} centroid is in tree {self.centroid.tree_id}, "
                f"expected tree {self.tree_id}"
            )

    @property
    def size(self) -> int:
        """Number of member repository nodes."""
        return len(self.members)

    def member_global_ids(self) -> Set[int]:
        return {member.global_id for member in self.members}

    def add(self, member: RepositoryNodeRef) -> None:
        if member.tree_id != self.tree_id:
            raise ClusteringError(
                f"cannot add node {member.global_id} from tree {member.tree_id} to cluster "
                f"{self.cluster_id} of tree {self.tree_id}"
            )
        self.members.add(member)

    def mapping_elements(self, candidates: MappingElementSets) -> List[MappingElement]:
        """All mapping elements (personal node, repository node) falling in this cluster."""
        return self.restricted_candidates(candidates).all_elements()

    def mapping_element_count(self, candidates: MappingElementSets) -> int:
        """Number of mapping elements in the cluster (Fig. 4's cluster size)."""
        return self.restricted_candidates(candidates).total()

    def restricted_candidates(self, candidates: MappingElementSets) -> MappingElementSets:
        """The candidate sets restricted to this cluster's members.

        For many clusters of one query use :func:`restrict_to_clusters`, which
        makes one pass over the candidates instead of one per cluster.
        """
        return candidates.restrict_to_refs(self.member_global_ids())

    def is_useful(self, candidates: MappingElementSets) -> bool:
        """True when every personal node has at least one candidate in the cluster."""
        return self.restricted_candidates(candidates).is_complete()

    def __contains__(self, ref: RepositoryNodeRef) -> bool:
        return ref in self.members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(id={self.cluster_id}, tree={self.tree_id}, size={self.size})"


def restrict_to_clusters(
    clusters: Sequence[Cluster], candidates: MappingElementSets, useful_only: bool = False
) -> List[Optional[MappingElementSets]]:
    """Each cluster's restricted candidate sets, from one pass over ``candidates``.

    Entry ``i`` equals ``clusters[i].restricted_candidates(candidates)``; with
    ``useful_only`` it is ``None`` for a cluster that is not useful, and no
    copy is built for it (see :meth:`MappingElementSets.restrict_to_groups`).
    """
    return candidates.restrict_to_groups(
        [[member.global_id for member in cluster.members] for cluster in clusters],
        complete_only=useful_only,
    )


def clusters_from_groups(grouped: Dict[tuple, Set[RepositoryNodeRef]]) -> ClusterSet:
    """Assemble grouped members into a canonical :class:`ClusterSet`.

    Shared by every offline clusterer (tree, fragment, precomputed partition):
    groups are renumbered in sorted key order — keys must start with the tree
    id — and each cluster's centroid is its smallest member by global id.
    Keeping this in one place is what lets the tests pin different clusterers'
    outputs as identical.

    Every caller groups members by their own tree id, so the clusters are
    assembled without :class:`Cluster`'s per-member tree check.
    """
    clusters = ClusterSet()
    for new_id, key in enumerate(sorted(grouped)):
        members = grouped[key]
        cluster = Cluster.__new__(Cluster)
        cluster.cluster_id = new_id
        cluster.tree_id = key[0]
        cluster.members = set(members)
        # Refs order by global id first, and global ids are unique.
        cluster.centroid = min(members)
        clusters.add(cluster)
    return clusters


class ClusterSet:
    """The collection of clusters produced by one clustering run."""

    def __init__(self, clusters: Iterable[Cluster] = ()) -> None:
        self._clusters: List[Cluster] = []
        for cluster in clusters:
            self.add(cluster)

    def add(self, cluster: Cluster) -> None:
        self._clusters.append(cluster)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self._clusters)

    def __len__(self) -> int:
        return len(self._clusters)

    @property
    def cluster_count(self) -> int:
        return len(self._clusters)

    def clusters(self) -> List[Cluster]:
        return list(self._clusters)

    def non_empty(self) -> "ClusterSet":
        return ClusterSet(cluster for cluster in self._clusters if cluster.size > 0)

    def useful_clusters(self, candidates: MappingElementSets) -> List[Cluster]:
        """Clusters able to produce complete mappings for the given candidates."""
        restricted = restrict_to_clusters(self._clusters, candidates, useful_only=True)
        return [
            cluster for cluster, sets in zip(self._clusters, restricted) if sets is not None
        ]

    def sizes(self) -> List[int]:
        return [cluster.size for cluster in self._clusters]

    def mapping_element_sizes(self, candidates: MappingElementSets) -> List[int]:
        """Cluster sizes measured in mapping elements (the unit of Fig. 4)."""
        return [sets.total() for sets in restrict_to_clusters(self._clusters, candidates)]  # type: ignore[union-attr]

    def total_members(self) -> int:
        return sum(cluster.size for cluster in self._clusters)

    def assignment(self) -> Dict[int, int]:
        """Mapping from member global id to cluster id (for stability checks)."""
        mapping: Dict[int, int] = {}
        for cluster in self._clusters:
            for member in cluster.members:
                mapping[member.global_id] = cluster.cluster_id
        return mapping

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterSet(clusters={len(self._clusters)}, members={self.total_members()})"
