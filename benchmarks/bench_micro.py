"""Micro-benchmarks of the substrates the matching pipeline is built on.

These cover the components whose cost the paper discusses qualitatively: the
fuzzy string matcher (CompareStringFuzzy stand-in), the node-labeling distance
oracle ("low-cost computation of path lengths"), the element-matching scan,
the restriction of the candidates to every cluster of one query, and the
analytical search-space model of Section 2.3.
"""

from __future__ import annotations

import pytest

from repro.clustering.cluster import restrict_to_clusters
from repro.labeling.distance import TreeDistanceOracle
from repro.matchers.name import FuzzyNameMatcher
from repro.matchers.selection import MappingElementSelector
from repro.matchers.string_metrics import damerau_levenshtein_distance, fuzzy_similarity
from repro.mapping.search_space import search_space_size, theoretical_reduction_factor
from repro.schema.node import SchemaNode
from repro.service import MatchingService
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import paper_personal_schema, purchase_personal_schema

NAME_PAIRS = [
    ("authorName", "author_name"),
    ("shipToAddress", "shippingAddress"),
    ("publicationYear", "pubYear"),
    ("customerIdentifier", "custId"),
    ("emailAddress", "eMail"),
    ("title", "titel"),
]


def test_fuzzy_similarity_over_name_pairs(benchmark):
    """Normalized Damerau-Levenshtein over a batch of realistic element-name pairs."""

    def run_batch():
        return [fuzzy_similarity(a, b) for a, b in NAME_PAIRS]

    scores = benchmark(run_batch)
    assert all(0.0 <= score <= 1.0 for score in scores)


def test_damerau_levenshtein_long_names(benchmark):
    first = "internationalStandardBookNumber"
    second = "internationalStandardSerialNumber"
    distance = benchmark(damerau_levenshtein_distance, first, second)
    assert distance > 0


def test_distance_oracle_construction(benchmark, bench_workload):
    """Ancestor-mask table of the largest repository tree (one forward pass)."""
    largest = max(bench_workload.repository.trees(), key=lambda tree: tree.node_count)
    oracle = benchmark(TreeDistanceOracle, largest)
    assert oracle.distance(0, largest.node_count - 1) >= 0


def test_distance_oracle_queries(benchmark, bench_workload):
    """A batch of path-length queries: an xor of two masks and a popcount each."""
    largest = max(bench_workload.repository.trees(), key=lambda tree: tree.node_count)
    oracle = TreeDistanceOracle(largest)
    pairs = [(i, (i * 7 + 3) % largest.node_count) for i in range(0, largest.node_count, 2)]

    def run_queries():
        return sum(oracle.distance(a, b) for a, b in pairs)

    total = benchmark(run_queries)
    assert total >= 0


def test_naive_distance_queries_for_comparison(benchmark, bench_workload):
    """The same queries answered by root-path walking (what the oracle replaces)."""
    largest = max(bench_workload.repository.trees(), key=lambda tree: tree.node_count)
    pairs = [(i, (i * 7 + 3) % largest.node_count) for i in range(0, largest.node_count, 2)]

    def run_queries():
        return sum(largest.distance(a, b) for a, b in pairs)

    total = benchmark(run_queries)
    assert total >= 0


def test_path_mask_queries(benchmark, bench_workload):
    """The |Et| primitive: path-edge masks between node pairs, unioned with ``|``."""
    largest = max(bench_workload.repository.trees(), key=lambda tree: tree.node_count)
    oracle = TreeDistanceOracle(largest)
    pairs = [(i, (i * 7 + 3) % largest.node_count) for i in range(0, largest.node_count, 2)]

    def run_queries():
        union = 0
        for a, b in pairs:
            union |= oracle.path_mask(a, b)
        return union.bit_count()

    assert benchmark(run_queries) <= largest.edge_count


def test_naive_path_edges_for_comparison(benchmark, bench_workload):
    """The same unions built from root-path-walking edge sets (what the masks replace)."""
    largest = max(bench_workload.repository.trees(), key=lambda tree: tree.node_count)
    pairs = [(i, (i * 7 + 3) % largest.node_count) for i in range(0, largest.node_count, 2)]

    def run_queries():
        union: set = set()
        for a, b in pairs:
            union |= largest.path_edge_ids(a, b)
        return len(union)

    assert benchmark(run_queries) <= largest.edge_count


@pytest.fixture(scope="module")
def partition_clusters():
    """One query's candidates and clusters at the served scale.

    The paper-profile repository (~9,750 nodes) under a default service's
    partition clusterer, queried with the purchase schema: about 530
    clusters over about 700 candidates, the per-request shape of the
    served workloads, where only a few clusters (here none) are useful.
    """
    system = MatchingService(RepositoryGenerator(RepositoryProfile()).generate()).system
    candidates = system.element_matching(purchase_personal_schema())
    return candidates, system.cluster_candidates(candidates).clusters.clusters()


def test_one_pass_cluster_restriction(benchmark, partition_clusters):
    """Every cluster's candidate sets from one pass, non-useful clusters dropped."""
    candidates, clusters = partition_clusters
    restricted = benchmark(restrict_to_clusters, clusters, candidates, True)
    benchmark.extra_info["clusters"] = len(clusters)
    benchmark.extra_info["useful_clusters"] = sum(sets is not None for sets in restricted)


def test_per_cluster_restriction_for_comparison(benchmark, partition_clusters):
    """The same sets from one filter pass per cluster (what the one pass replaces)."""
    candidates, clusters = partition_clusters

    def restrict_each():
        restricted = []
        for cluster in clusters:
            members = cluster.member_global_ids()
            lists = [
                [element for element in elements if element.ref.global_id in members]
                for _, elements in candidates
            ]
            restricted.append(lists if all(lists) else None)
        return restricted

    naive = benchmark(restrict_each)
    one_pass = restrict_to_clusters(clusters, candidates, useful_only=True)
    assert [lists is None for lists in naive] == [sets is None for sets in one_pass]


def test_element_matching_stage(benchmark, bench_workload, bench_config):
    """The full personal-schema x repository element-matching scan (step 2 of Fig. 2)."""
    selector = MappingElementSelector(FuzzyNameMatcher(), threshold=bench_config.element_threshold)

    def run_selection():
        return selector.select(paper_personal_schema(), bench_workload.repository)

    candidates = benchmark.pedantic(run_selection, rounds=3, iterations=1)
    assert candidates.total() > 0


def test_search_space_model(benchmark):
    """The analytical search-space computation of Section 2.3."""

    def evaluate_model():
        total = 0
        for clusters in (1, 10, 100, 250):
            total += search_space_size({0: 1500 // clusters, 1: 1500 // clusters, 2: 1500 // clusters})
            theoretical_reduction_factor(clusters, 3)
        return total

    assert benchmark(evaluate_model) > 0
