"""Property-based tests: the ancestor-mask oracle agrees with the naive tree algorithms."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.labeling.distance import TreeDistanceOracle
from repro.labeling.interval import IntervalLabeling
from repro.schema.node import SchemaNode
from repro.schema.tree import SchemaTree


@st.composite
def random_trees(draw, max_nodes: int = 35) -> SchemaTree:
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    tree = SchemaTree(name="random")
    tree.add_root(SchemaNode(name="n0"))
    for index in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=index - 1))
        tree.add_child(parent, SchemaNode(name=f"n{index}"))
    return tree


@given(random_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_oracle_distance_equals_naive_distance(tree, data):
    oracle = TreeDistanceOracle(tree)
    node_ids = list(tree.node_ids())
    u = data.draw(st.sampled_from(node_ids))
    v = data.draw(st.sampled_from(node_ids))
    assert oracle.distance(u, v) == tree.distance(u, v)


@given(random_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_path_mask_bits_equal_naive_path_edges(tree, data):
    oracle = TreeDistanceOracle(tree)
    node_ids = list(tree.node_ids())
    u = data.draw(st.sampled_from(node_ids))
    v = data.draw(st.sampled_from(node_ids))
    mask = oracle.path_mask(u, v)
    bits = {bit for bit in range(mask.bit_length()) if mask >> bit & 1}
    assert bits == tree.path_edge_ids(u, v)
    assert mask.bit_count() == oracle.distance(u, v)


@given(random_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_union_of_path_masks_counts_the_union_of_edge_sets(tree, data):
    oracle = TreeDistanceOracle(tree)
    node_ids = list(tree.node_ids())
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(node_ids), st.sampled_from(node_ids)), max_size=5))
    union_mask = 0
    union_edges: set = set()
    for u, v in pairs:
        union_mask |= oracle.path_mask(u, v)
        union_edges |= tree.path_edge_ids(u, v)
    assert union_mask.bit_count() == len(union_edges)


@given(random_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_root_path_masks_agree_with_interval_ancestry(tree, data):
    # A node's root-path mask is the path mask to the root; ancestor-or-self
    # means the ancestor's root path is a sub-mask of the descendant's.
    oracle = TreeDistanceOracle(tree)
    labels = IntervalLabeling(tree)
    node_ids = list(tree.node_ids())
    u = data.draw(st.sampled_from(node_ids))
    v = data.draw(st.sampled_from(node_ids))
    root = tree.root_id
    u_mask, v_mask = oracle.path_mask(root, u), oracle.path_mask(root, v)
    assert (u_mask & ~v_mask == 0) == labels.is_ancestor_or_self(u, v)


@given(random_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_interval_labels_agree_with_ancestor_relation(tree, data):
    labels = IntervalLabeling(tree)
    node_ids = list(tree.node_ids())
    u = data.draw(st.sampled_from(node_ids))
    v = data.draw(st.sampled_from(node_ids))
    assert labels.is_ancestor_or_self(u, v) == tree.is_ancestor(u, v)
