"""Incremental-update equivalence: live mutations ≡ full rebuild.

The service's claim is that after any sequence of ``add_tree`` /
``remove_tree`` calls, every observable — mapping-element sets, clusters,
ranked mappings, name lookups, prefilter decisions — is *bit-identical* to a
service built from scratch over the final forest.  These tests pin that claim
at the index level and at the full-pipeline level.
"""

from __future__ import annotations

import random

import pytest

from repro.matchers.index import RepositoryNameIndex
from repro.schema.builder import TreeBuilder
from repro.schema.repository import SchemaRepository
from repro.schema.serialization import tree_from_dict, tree_to_dict
from repro.service import MatchingService, RepositoryPartition
from repro.system.bellflower import Bellflower
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import contact_personal_schema, paper_personal_schema

from _equivalence import candidates_key, cluster_key, counters_key, path_records_key, result_key

NAME_POOL = [
    "name", "fullName", "author", "authorName", "address", "addr", "email",
    "mail", "title", "price", "person", "contact", "order", "entry",
]


def random_tree(seed: int, size: int = 8):
    rng = random.Random(seed)
    builder = TreeBuilder(f"rand-{seed}")
    root = builder.root(rng.choice(NAME_POOL))
    parents = [root]
    for _ in range(size - 1):
        parent = rng.choice(parents)
        parents.append(builder.child(parent, rng.choice(NAME_POOL)))
    return builder.build()


def clone_tree(tree):
    return tree_from_dict(tree_to_dict(tree))


def clone_forest(repository: SchemaRepository) -> SchemaRepository:
    fresh = SchemaRepository(name=repository.name)
    for tree in repository.trees():
        fresh.add_tree(clone_tree(tree))
    return fresh


@pytest.fixture
def base_repository() -> SchemaRepository:
    profile = RepositoryProfile(
        target_node_count=500, min_tree_size=12, max_tree_size=40, seed=99, name="inc-base"
    )
    return RepositoryGenerator(profile).generate()


class TestIndexIncrementalEquivalence:
    @pytest.mark.parametrize("case_sensitive", [False, True])
    @pytest.mark.parametrize("warm_blocking", [False, True])
    def test_with_tree_added_identical_to_fresh_build(
        self, base_repository, case_sensitive, warm_blocking
    ):
        index = RepositoryNameIndex.for_repository(base_repository, case_sensitive=case_sensitive)
        if warm_blocking:
            index.fuzzy_candidates("name", 0.6)
        tree_id = base_repository.add_tree(random_tree(5))
        incremental = index.with_tree_added(base_repository, tree_id)
        fresh = RepositoryNameIndex(base_repository, case_sensitive=case_sensitive)
        # Append-only update is exactly identical, internals included.
        assert incremental.keys == fresh.keys
        assert [
            incremental.refs_for_id(i) for i in range(incremental.unique_name_count)
        ] == [fresh.refs_for_id(i) for i in range(fresh.unique_name_count)]
        for query in ("name", "authorname", "titel", "zzz"):
            assert sorted(
                incremental.keys[i] for i in incremental.fuzzy_candidates(query, 0.6)[0]
            ) == sorted(fresh.keys[i] for i in fresh.fuzzy_candidates(query, 0.6)[0])
            assert (
                incremental.fuzzy_candidates(query, 0.6)[1]
                == fresh.fuzzy_candidates(query, 0.6)[1]
            )

    @pytest.mark.parametrize("warm_blocking", [False, True])
    @pytest.mark.parametrize("removed", [0, 3, 7])
    def test_with_tree_removed_observably_equivalent(self, base_repository, warm_blocking, removed):
        index = RepositoryNameIndex.for_repository(base_repository)
        if warm_blocking:
            index.fuzzy_candidates("name", 0.6)
        removed_node_count = base_repository.tree(removed).node_count
        base_repository.remove_tree(removed)
        incremental = index.with_tree_removed(base_repository, removed, removed_node_count)
        fresh = RepositoryNameIndex(base_repository)
        assert sorted(incremental.keys) == sorted(fresh.keys)
        for key in fresh.keys:
            inc_refs = incremental.refs_for_id(incremental.id_for(key))
            fresh_refs = fresh.refs_for_id(fresh.id_for(key))
            assert inc_refs == fresh_refs
        for query in ("name", "email", "order"):
            inc_ids, inc_pruned = incremental.fuzzy_candidates(query, 0.6)
            fresh_ids, fresh_pruned = fresh.fuzzy_candidates(query, 0.6)
            assert sorted(incremental.keys[i] for i in inc_ids) == sorted(
                fresh.keys[i] for i in fresh_ids
            )
            assert inc_pruned == fresh_pruned


class TestServiceIncrementalEquivalence:
    @pytest.mark.parametrize("variant", [None, "medium", "tree"])
    def test_add_then_match_equals_rebuild(self, base_repository, variant):
        service = MatchingService(base_repository, variant=variant, element_threshold=0.5)
        service.build_derived_state()
        service.match(paper_personal_schema())  # warm every cache pre-mutation
        for seed in (11, 12):
            service.add_tree(random_tree(seed, size=10))

        rebuilt = MatchingService(
            clone_forest(service.repository), variant=variant, element_threshold=0.5
        )
        for schema in (paper_personal_schema(), contact_personal_schema()):
            live = service.match(schema)
            scratch = rebuilt.match(schema)
            assert candidates_key(live.candidates) == candidates_key(scratch.candidates)
            assert cluster_key(live) == cluster_key(scratch)
            assert result_key(live) == result_key(scratch)

    @pytest.mark.parametrize("variant", [None, "medium"])
    def test_remove_then_match_equals_rebuild(self, base_repository, variant):
        service = MatchingService(base_repository, variant=variant, element_threshold=0.5)
        service.build_derived_state()
        service.match(paper_personal_schema())
        service.remove_tree(2)
        service.remove_tree(0)

        rebuilt = MatchingService(
            clone_forest(service.repository), variant=variant, element_threshold=0.5
        )
        for schema in (paper_personal_schema(), contact_personal_schema()):
            live = service.match(schema)
            scratch = rebuilt.match(schema)
            assert candidates_key(live.candidates) == candidates_key(scratch.candidates)
            assert result_key(live) == result_key(scratch)

    def test_interleaved_mutations_equal_rebuild(self, base_repository):
        service = MatchingService(base_repository, element_threshold=0.5)
        service.build_derived_state()
        service.match(paper_personal_schema())
        service.add_tree(random_tree(21, size=12))
        service.remove_tree(1)
        service.add_tree(random_tree(22, size=6))
        service.remove_tree(service.repository.tree_count - 1)

        rebuilt = MatchingService(clone_forest(service.repository), element_threshold=0.5)
        live = service.match(paper_personal_schema())
        scratch = rebuilt.match(paper_personal_schema())
        assert candidates_key(live.candidates) == candidates_key(scratch.candidates)
        assert result_key(live) == result_key(scratch)
        # Derived-state bookkeeping stayed consistent too.
        assert service.repository.name_index().node_count == service.repository.node_count
        assert service.partition.built_tree_count == service.repository.tree_count

    def test_mutations_clear_the_query_cache(self, base_repository):
        service = MatchingService(base_repository, element_threshold=0.5)
        service.match(paper_personal_schema())
        assert service.query_cache_len == 1
        service.add_tree(random_tree(31))
        assert service.query_cache_len == 0
        service.match(paper_personal_schema())
        service.remove_tree(0)
        assert service.query_cache_len == 0
        assert service.counters.get("trees_added") == 1
        assert service.counters.get("trees_removed") == 1


class TestDirectRepositoryRemoval:
    """``SchemaRepository.remove_tree`` called behind a pipeline's back.

    The repository owns the per-tree distance oracles and re-keys them on
    removal, so a pipeline built before the removal answers exactly like one
    built over a copy of the mutated forest.  (The default repository profile
    is large enough that stale oracle rows would raise on a shifted tree.)
    """

    @staticmethod
    def full_key(result):
        return (result_key(result), path_records_key(result), counters_key(result))

    def test_bellflower_answers_like_a_fresh_one(self):
        repository = RepositoryGenerator(RepositoryProfile()).generate()
        system = Bellflower(repository)
        schema = contact_personal_schema()
        system.match(schema)
        repository.remove_tree(0)
        fresh = Bellflower(clone_forest(repository))
        assert self.full_key(system.match(schema)) == self.full_key(fresh.match(schema))

    def test_service_answers_like_a_fresh_one(self):
        repository = RepositoryGenerator(RepositoryProfile()).generate()
        service = MatchingService(repository, variant="tree")
        schema = contact_personal_schema()
        service.match(schema)
        repository.remove_tree(0)
        fresh = MatchingService(clone_forest(repository), variant="tree")
        assert self.full_key(service.match(schema)) == self.full_key(fresh.match(schema))


class TestExplicitPartitionClusterer:
    def test_adopted_partition_is_maintained_across_mutations(self, base_repository):
        """An externally constructed PartitionClusterer must stay consistent too."""
        from repro.service import PartitionClusterer

        partition = RepositoryPartition(max_fragment_size=15)
        service = MatchingService(
            base_repository, clusterer=PartitionClusterer(partition), element_threshold=0.5
        )
        assert service.partition is partition
        service.match(paper_personal_schema())  # lazily builds fragment entries
        service.remove_tree(0)
        service.add_tree(random_tree(61, size=10))

        rebuilt = MatchingService(
            clone_forest(service.repository),
            element_threshold=0.5,
            partition_max_fragment_size=15,
        )
        live = service.match(paper_personal_schema())
        scratch = rebuilt.match(paper_personal_schema())
        assert candidates_key(live.candidates) == candidates_key(scratch.candidates)
        assert result_key(live) == result_key(scratch)
        assert service.partition.built_tree_count <= service.repository.tree_count


class TestPartitionIncremental:
    def test_partition_updates_match_full_rebuild(self, base_repository):
        partition = RepositoryPartition(max_fragment_size=12)
        partition.build_all(base_repository)
        tree_id = base_repository.add_tree(random_tree(41, size=30))
        partition.on_tree_added(base_repository, tree_id)
        base_repository.remove_tree(4)
        partition.on_tree_removed(4)

        rebuilt = RepositoryPartition(max_fragment_size=12)
        rebuilt.build_all(base_repository)
        for tree in base_repository.trees():
            assert partition.fragments_for(base_repository, tree.tree_id) == rebuilt.fragments_for(
                base_repository, tree.tree_id
            )
