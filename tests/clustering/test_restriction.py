"""One-pass candidate restriction equals filtering the candidates once per cluster.

``MappingElementSets.restrict_to_groups`` (and ``restrict_to_clusters`` on
top of it) replaces a per-cluster filter over every candidate list.  The
mapping generator searches exactly what it returns, so the restricted lists
must hold the same elements in the same per-node order as the filter would —
order decides search order, and with it rankings and counters.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clustering.cluster import Cluster, ClusterSet, restrict_to_clusters
from repro.matchers.selection import MappingElement, MappingElementSets
from repro.schema.repository import RepositoryNodeRef

ID_SPACE = 12


def _ref(global_id: int) -> RepositoryNodeRef:
    tree_id = global_id % 2
    return RepositoryNodeRef(global_id=global_id, tree_id=tree_id, node_id=global_id // 2)


@st.composite
def candidate_sets(draw):
    node_ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    sets = MappingElementSets(node_ids)
    for node_id in node_ids:
        # Unsorted and possibly empty; one repository node may serve several
        # personal nodes.
        for global_id in draw(st.lists(st.integers(0, ID_SPACE - 1), max_size=8, unique=True)):
            similarity = draw(st.floats(min_value=0.05, max_value=1.0))
            sets.add(MappingElement(node_id, _ref(global_id), similarity))
    return sets


# Groups overlap, repeat ids, name ids no candidate has, and may be empty.
id_groups = st.lists(st.lists(st.integers(0, ID_SPACE + 3), max_size=10), max_size=8)


def _records(sets: MappingElementSets):
    """Per node, the restricted elements as comparable records (similarity included)."""
    return [
        (node_id, [(element.ref.global_id, element.similarity) for element in elements])
        for node_id, elements in sets
    ]


def _naive(sets: MappingElementSets, group) -> list:
    members = set(group)
    return [
        (node_id, [(e.ref.global_id, e.similarity) for e in elements if e.ref.global_id in members])
        for node_id, elements in sets
    ]


@given(candidate_sets(), id_groups)
@settings(max_examples=80, deadline=None)
def test_one_pass_restriction_equals_the_per_group_filter(sets, groups):
    restricted = sets.restrict_to_groups(groups)
    assert len(restricted) == len(groups)
    for group, copy in zip(groups, restricted):
        assert copy is not None
        assert _records(copy) == _naive(sets, group)


@given(candidate_sets(), id_groups)
@settings(max_examples=80, deadline=None)
def test_complete_only_drops_exactly_the_groups_missing_a_node(sets, groups):
    restricted = sets.restrict_to_groups(groups, complete_only=True)
    for group, copy in zip(groups, restricted):
        naive = _naive(sets, group)
        if all(elements for _, elements in naive):
            assert copy is not None and _records(copy) == naive
        else:
            assert copy is None


@given(candidate_sets(), st.lists(st.integers(0, ID_SPACE + 3), max_size=10))
@settings(max_examples=60, deadline=None)
def test_restrict_to_refs_is_the_one_group_case(sets, group):
    assert _records(sets.restrict_to_refs(group)) == _naive(sets, group)


@given(candidate_sets(), st.lists(st.lists(st.integers(0, ID_SPACE - 1), max_size=6), max_size=6))
@settings(max_examples=100, deadline=None)
def test_cluster_helpers_agree_with_the_per_cluster_filter(sets, member_lists):
    # Clusters of one tree each (tree = global id parity), overlapping freely.
    clusters = ClusterSet(
        Cluster(
            cluster_id=index,
            tree_id=index % 2,
            members={_ref(global_id) for global_id in members if global_id % 2 == index % 2},
        )
        for index, members in enumerate(member_lists)
    )
    ordered = clusters.clusters()
    naive = [_naive(sets, cluster.member_global_ids()) for cluster in ordered]
    useful = [cluster.cluster_id for cluster, records in zip(ordered, naive) if all(e for _, e in records)]

    assert [_records(copy) for copy in restrict_to_clusters(ordered, sets)] == naive
    assert [cluster.cluster_id for cluster in clusters.useful_clusters(sets)] == useful
    assert clusters.mapping_element_sizes(sets) == [
        sum(len(elements) for _, elements in records) for records in naive
    ]
    for cluster, records in zip(ordered, naive):
        assert cluster.is_useful(sets) == (cluster.cluster_id in useful)
        assert [(e.ref.global_id, e.similarity) for e in cluster.mapping_elements(sets)] == [
            record for _, elements in records for record in elements
        ]
