"""Tests for mapping ranking/merging and search-space accounting."""

import pytest

from repro.matchers.selection import MappingElement, MappingElementSets
from repro.mapping.model import SchemaMapping
from repro.mapping.ranking import (
    above_threshold,
    merge_ranked,
    ranking_sort_key,
    score_histogram,
    top_n,
)
from repro.mapping.search_space import (
    candidate_search_space,
    clustered_search_space,
    grouped_search_space,
    reduction_percentage,
    search_space_size,
    theoretical_reduction_factor,
)
from repro.schema.repository import RepositoryNodeRef


def make_mapping(score, global_ids, cluster_id=None):
    assignment = {
        index: MappingElement(
            index,
            RepositoryNodeRef(global_id=gid, tree_id=0, node_id=gid),
            score,
        )
        for index, gid in enumerate(global_ids)
    }
    return SchemaMapping(
        assignment=assignment,
        score=score,
        components={"sim": score, "path": 1.0},
        target_edge_count=len(global_ids) - 1,
        tree_id=0,
        cluster_id=cluster_id,
    )


class TestRanking:
    def test_merge_ranked_orders_by_score(self):
        merged = merge_ranked([[make_mapping(0.7, (1, 2))], [make_mapping(0.9, (3, 4))]])
        assert [m.score for m in merged] == [0.9, 0.7]

    def test_merge_ranked_deduplicates_identical_signatures(self):
        duplicate_a = make_mapping(0.8, (1, 2), cluster_id=0)
        duplicate_b = make_mapping(0.8, (1, 2), cluster_id=1)
        merged = merge_ranked([[duplicate_a], [duplicate_b]])
        assert len(merged) == 1
        not_deduplicated = merge_ranked([[duplicate_a], [duplicate_b]], deduplicate=False)
        assert len(not_deduplicated) == 2

    def test_equal_scores_rank_identically_regardless_of_arrival_order(self):
        """The canonical key makes merged rankings independent of group order."""
        a = make_mapping(0.8, (1, 2), cluster_id=2)
        b = make_mapping(0.8, (3, 4), cluster_id=0)
        c = make_mapping(0.8, (5, 6), cluster_id=1)
        forward = merge_ranked([[a], [b], [c]])
        backward = merge_ranked([[c], [b], [a]])
        assert [m.signature() for m in forward] == [m.signature() for m in backward]
        # Ties break on cluster id first: 0, 1, 2.
        assert [m.cluster_id for m in forward] == [0, 1, 2]

    def test_duplicate_survivor_is_deterministic(self):
        """Dedup keeps the lowest-cluster instance of an equal-score duplicate."""
        from_cluster_3 = make_mapping(0.8, (1, 2), cluster_id=3)
        from_cluster_1 = make_mapping(0.8, (1, 2), cluster_id=1)
        merged = merge_ranked([[from_cluster_3], [from_cluster_1]])
        assert len(merged) == 1
        assert merged[0].cluster_id == 1

    def test_ranking_sort_key_places_clusterless_after_clustered(self):
        clustered = make_mapping(0.8, (1, 2), cluster_id=7)
        clusterless = make_mapping(0.8, (1, 2), cluster_id=None)
        assert ranking_sort_key(clustered) < ranking_sort_key(clusterless)

    def test_top_n(self):
        mappings = [make_mapping(s, (int(s * 100), int(s * 100) + 1)) for s in (0.5, 0.9, 0.7)]
        best_two = top_n(mappings, 2)
        assert [m.score for m in best_two] == [0.9, 0.7]
        assert top_n(mappings, 0) == []
        with pytest.raises(ValueError):
            top_n(mappings, -1)

    def test_above_threshold(self):
        mappings = [make_mapping(s, (int(s * 100), int(s * 100) + 1)) for s in (0.5, 0.9)]
        assert len(above_threshold(mappings, 0.8)) == 1

    def test_score_histogram(self):
        mappings = [make_mapping(s, (int(s * 1000), int(s * 1000) + 1)) for s in (0.76, 0.79, 0.91)]
        histogram = score_histogram(mappings, bin_width=0.05)
        assert sum(histogram.values()) == 3
        with pytest.raises(ValueError):
            score_histogram(mappings, bin_width=0.0)

    @pytest.mark.parametrize("score, bin_width", [(0.15, 0.05), (0.3, 0.1), (0.6, 0.05)])
    def test_score_on_a_bin_edge_lands_in_its_own_bin(self, score, bin_width):
        histogram = score_histogram([make_mapping(score, (1, 2))], bin_width=bin_width)
        assert histogram == {score: 1}


class TestSearchSpace:
    def test_product_of_candidate_counts(self):
        assert search_space_size({0: 3, 1: 4, 2: 5}) == 60
        assert search_space_size([2, 2]) == 4

    def test_zero_candidates_empty_space(self):
        assert search_space_size({0: 3, 1: 0}) == 0
        assert search_space_size([]) == 0

    def test_candidate_search_space(self):
        sets = MappingElementSets([0, 1])
        for gid in range(3):
            sets.add(MappingElement(0, RepositoryNodeRef(gid, 0, gid), 0.5))
        sets.add(MappingElement(1, RepositoryNodeRef(10, 0, 10), 0.5))
        assert candidate_search_space(sets) == 3

    def test_clustered_search_space_sums_clusters(self):
        def make_sets(counts):
            sets = MappingElementSets(list(range(len(counts))))
            gid = 0
            for node_id, count in enumerate(counts):
                for _ in range(count):
                    sets.add(MappingElement(node_id, RepositoryNodeRef(gid, 0, gid), 0.5))
                    gid += 1
            return sets

        clusters = [make_sets([2, 2]), make_sets([3, 1])]
        assert clustered_search_space(clusters) == 4 + 3

    def test_grouped_search_space(self):
        groups = {0: ["a", "b", "c"], 1: ["d", "e"]}
        assert grouped_search_space(groups) == 6
        assert grouped_search_space({0: []}) == 0

    def test_theoretical_reduction_factor(self):
        # c^(|Ns|-1): with 10 clusters and 3 personal nodes the space shrinks ~100x.
        assert theoretical_reduction_factor(10, 3) == 100.0
        assert theoretical_reduction_factor(1, 5) == 1.0
        with pytest.raises(ValueError):
            theoretical_reduction_factor(0, 3)
        with pytest.raises(ValueError):
            theoretical_reduction_factor(3, 0)

    def test_reduction_percentage(self):
        assert reduction_percentage(150, 300) == pytest.approx(0.5)
        assert reduction_percentage(10, 0) == 0.0
