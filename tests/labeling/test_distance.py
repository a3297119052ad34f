"""Tests for the ancestor-bitmask distance oracles."""

import threading

import pytest

from repro.errors import LabelingError, UnknownNodeError
from repro.labeling.distance import RepositoryDistanceOracle, TreeDistanceOracle
from repro.schema.tree import SchemaTree

LIB, BOOK, DATA, AUTHOR_NAME, SHELF, TITLE, ADDRESS = range(7)


def mask_bits(mask: int) -> set:
    """The child node ids whose bits are set in a path mask."""
    return {bit for bit in range(mask.bit_length()) if mask >> bit & 1}


def test_rejects_empty_tree():
    with pytest.raises(LabelingError):
        TreeDistanceOracle(SchemaTree("empty"))


def test_oracle_distances_match_fig1_expectations(library_tree):
    oracle = TreeDistanceOracle(library_tree)
    assert oracle.distance(DATA, TITLE) == 2
    assert oracle.distance(AUTHOR_NAME, SHELF) == 2
    assert oracle.distance(AUTHOR_NAME, ADDRESS) == 4
    assert oracle.distance(LIB, AUTHOR_NAME) == 3
    assert oracle.distance(TITLE, TITLE) == 0


def test_oracle_matches_naive_distance_on_all_pairs(library_tree):
    oracle = TreeDistanceOracle(library_tree)
    for u in library_tree.node_ids():
        for v in library_tree.node_ids():
            assert oracle.distance(u, v) == library_tree.distance(u, v)


def test_oracle_path_masks_match_tree_path_edges(library_tree):
    oracle = TreeDistanceOracle(library_tree)
    for u in library_tree.node_ids():
        for v in library_tree.node_ids():
            assert mask_bits(oracle.path_mask(u, v)) == library_tree.path_edge_ids(u, v)


def test_path_mask_of_fig1_mapping_subtree(library_tree):
    oracle = TreeDistanceOracle(library_tree)
    to_title = oracle.path_mask(BOOK, TITLE)
    to_author = oracle.path_mask(BOOK, AUTHOR_NAME)
    assert mask_bits(to_title | to_author) == {TITLE, DATA, AUTHOR_NAME}
    assert (to_title | to_author).bit_count() == 3
    assert oracle.path_mask(LIB, LIB) == 0


def test_unknown_node_raises(library_tree):
    oracle = TreeDistanceOracle(library_tree)
    with pytest.raises(UnknownNodeError):
        oracle.distance(0, 99)
    with pytest.raises(UnknownNodeError):
        oracle.distance(99, 99)


@pytest.mark.parametrize("method", ["distance", "path_mask"])
@pytest.mark.parametrize("bad_id", [-1, 7])
def test_ids_outside_the_tree_raise_before_indexing(library_tree, method, bad_id):
    # -1 would silently wrap to the last node in a plain list lookup;
    # 7 is node_count, one past the last id.
    assert library_tree.node_count == 7
    query = getattr(TreeDistanceOracle(library_tree), method)
    for first, second in ((bad_id, LIB), (LIB, bad_id), (bad_id, bad_id)):
        with pytest.raises(UnknownNodeError):
            query(first, second)


def test_repository_oracle_within_and_across_trees(small_repository):
    oracle = RepositoryDistanceOracle(small_repository)
    first_tree = small_repository.tree(0)
    a = small_repository.ref(0, 1)
    b = small_repository.ref(0, 5)
    assert oracle.distance(a, b) == first_tree.distance(1, 5)
    other = small_repository.ref(1, 0)
    assert oracle.distance(a, other) is None
    assert oracle.path_mask(a, other) is None
    assert mask_bits(oracle.path_mask(a, b)) == first_tree.path_edge_ids(1, 5)


def test_repository_oracle_is_lazy(small_repository):
    oracle = RepositoryDistanceOracle(small_repository)
    assert oracle.built_oracle_count == 0
    oracle.distance(small_repository.ref(1, 0), small_repository.ref(1, 2))
    assert oracle.built_oracle_count == 1
    # Re-querying the same tree does not build a new oracle.
    oracle.distance(small_repository.ref(1, 1), small_repository.ref(1, 3))
    assert oracle.built_oracle_count == 1


def test_facades_over_one_repository_share_its_oracles(small_repository):
    first = RepositoryDistanceOracle(small_repository)
    second = RepositoryDistanceOracle(small_repository)
    assert first.oracle(2) is second.oracle(2)
    assert second.built_oracle_count == 1


def test_repository_mutations_keep_oracles_keyed_by_tree_id(small_repository):
    oracle = RepositoryDistanceOracle(small_repository)
    oracle.build_all()
    contact, order = oracle.oracle(1), oracle.oracle(2)
    removed = small_repository.remove_tree(0)
    assert oracle.built_oracle_count == 2
    assert oracle.oracle(0) is contact and oracle.oracle(1) is order
    assert_answers_like(oracle.oracle(1), small_repository.tree(1))
    small_repository.add_tree(removed)
    assert oracle.built_oracle_count == 2  # the re-added tree builds on first use
    assert_answers_like(oracle.oracle(2), removed)


def assert_answers_like(tree_oracle, tree):
    for u in tree.node_ids():
        for v in tree.node_ids():
            assert tree_oracle.distance(u, v) == tree.distance(u, v)
            assert mask_bits(tree_oracle.path_mask(u, v)) == tree.path_edge_ids(u, v)


def test_racing_first_builds_publish_one_oracle(small_repository):
    oracle = RepositoryDistanceOracle(small_repository)
    barrier = threading.Barrier(4)
    seen = []

    def build():
        barrier.wait()
        seen.append(oracle.oracle(0))

    threads = [threading.Thread(target=build) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(seen) == 4 and all(built is seen[0] for built in seen)
