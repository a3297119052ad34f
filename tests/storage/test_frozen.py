"""Frozen snapshots: freeze → mmap-load → bit-identical behaviour.

The frozen carrier is pure acceleration — any divergence from the JSON path
would silently corrupt match results rather than crash.  Every test therefore
pins exact equality (rankings, path evidence, counters, cluster reports)
between a frozen-loaded service and its JSON-loaded twin, across every
executor, through mutation (thaw), compaction, and sharding.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "service"))
from _equivalence import (  # noqa: E402
    cluster_key,
    counters_key,
    execution_backends,
    path_records_key,
    result_key,
)

from repro.errors import ReproError
from repro.matchers.name import FuzzyNameMatcher
from repro.schema.repository import SchemaRepository
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.shard import RoundRobinRouter, ShardedMatchingService, load_shard_set, write_shard_set
from repro.storage import (
    FrozenRepository,
    compact_frozen,
    freeze_service,
    freeze_snapshot_file,
    is_frozen_file,
    load_frozen_service,
    open_frozen,
)
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import contact_personal_schema, paper_personal_schema


def make_service(seed: int = 11, nodes: int = 800) -> MatchingService:
    profile = RepositoryProfile(
        target_node_count=nodes,
        min_tree_size=10,
        max_tree_size=60,
        seed=seed,
        name=f"frozen-{seed}",
    )
    return MatchingService(RepositoryGenerator(profile).generate(), matcher=FuzzyNameMatcher())


def full_key(result):
    return (result_key(result), path_records_key(result), counters_key(result), cluster_key(result))


@pytest.fixture(scope="module")
def snapshot_pair(tmp_path_factory):
    """One service written both ways: ``snap.json`` and ``snap.frozen``."""
    target = tmp_path_factory.mktemp("frozen")
    service = make_service()
    write_snapshot(service, target / "snap.json")
    freeze_service(service, target / "snap.frozen")
    return target


@pytest.fixture(scope="module")
def reference_keys(snapshot_pair):
    service = load_snapshot(snapshot_pair / "snap.json")
    return {
        "paper": full_key(service.match(paper_personal_schema())),
        "contact": full_key(service.match(contact_personal_schema())),
    }


class TestFrozenLoadEquivalence:
    def test_load_snapshot_dispatches_on_magic_bytes(self, snapshot_pair):
        frozen = load_snapshot(snapshot_pair / "snap.frozen")
        assert type(frozen.repository) is FrozenRepository
        plain = load_snapshot(snapshot_pair / "snap.json")
        assert type(plain.repository) is SchemaRepository

    def test_frozen_views_satisfy_the_repository_contracts(self, snapshot_pair):
        frozen = load_snapshot(snapshot_pair / "snap.frozen").repository
        plain = load_snapshot(snapshot_pair / "snap.json").repository
        assert frozen.tree_count == plain.tree_count
        assert frozen.node_count == plain.node_count
        assert [t.tree_id for t in frozen.trees()] == [t.tree_id for t in plain.trees()]
        for frozen_tree, plain_tree in zip(frozen.trees(), plain.trees()):
            assert [n.name for n in frozen_tree.nodes()] == [n.name for n in plain_tree.nodes()]
            assert [n.kind for n in frozen_tree.nodes()] == [n.kind for n in plain_tree.nodes()]

    @pytest.mark.parametrize(
        "backend",
        # Every service here is frozen-loaded, so the plain executor columns
        # already cover the frozen carrier (the process column reopens).
        [backend for backend in execution_backends() if not backend[2]],
        ids=lambda backend: backend[0],
    )
    def test_match_bit_identical_across_backends(self, snapshot_pair, reference_keys, backend):
        _, factory, _ = backend
        executor = factory()
        service = load_frozen_service(snapshot_pair / "snap.frozen", executor=executor)
        try:
            assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]
            assert full_key(service.match(contact_personal_schema())) == reference_keys["contact"]
        finally:
            if executor is not None:
                executor.close()

    def test_repeated_queries_reuse_the_frozen_views(self, snapshot_pair, reference_keys):
        service = load_snapshot(snapshot_pair / "snap.frozen")
        assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]
        # The second match may come from the query cache (same as the JSON
        # service) — the mapping identity must hold either way.
        repeat = service.match(paper_personal_schema())
        assert (result_key(repeat), path_records_key(repeat)) == reference_keys["paper"][:2]
        assert type(service.repository) is FrozenRepository  # queries never thaw


class TestFreezeSnapshotFile:
    def test_json_to_frozen_conversion_is_bit_identical(
        self, snapshot_pair, reference_keys, tmp_path
    ):
        target = tmp_path / "converted.frozen"
        header = freeze_snapshot_file(snapshot_pair / "snap.json", target)
        assert is_frozen_file(target)
        assert header["repository"]["node_count"] == load_snapshot(
            snapshot_pair / "snap.json"
        ).repository.node_count
        service = load_frozen_service(target)
        assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]

    def test_frozen_input_is_rejected(self, snapshot_pair, tmp_path):
        with pytest.raises(ReproError, match="already"):
            freeze_snapshot_file(snapshot_pair / "snap.frozen", tmp_path / "twice.frozen")

    def test_inspectable_header_matches_the_repository(self, snapshot_pair):
        snapshot = open_frozen(snapshot_pair / "snap.frozen", cached=False)
        repository = load_snapshot(snapshot_pair / "snap.json").repository
        assert snapshot.header["repository"]["tree_count"] == repository.tree_count
        assert snapshot.header["repository"]["node_count"] == repository.node_count
        assert len(snapshot.header["indexes"]) >= 1


class TestMutationThaw:
    def test_mutation_thaws_and_stays_equivalent(self, snapshot_pair):
        json_service = load_snapshot(snapshot_pair / "snap.json")
        frozen_service = load_snapshot(snapshot_pair / "snap.frozen")
        extra = RepositoryGenerator(
            RepositoryProfile(target_node_count=60, min_tree_size=10, max_tree_size=30, seed=7)
        ).generate().tree(0)

        for service in (json_service, frozen_service):
            service.remove_tree(2)
            tree = copy.deepcopy(extra)
            tree.tree_id = -1
            service.add_tree(tree)

        # The first mutation materializes the repository in place: the frozen
        # service must behave as a plain in-memory one from then on.
        assert type(frozen_service.repository) is SchemaRepository
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert full_key(frozen_service.match(schema)) == full_key(json_service.match(schema))


class TestCompaction:
    def test_compact_equals_mutate_then_query(self, snapshot_pair, tmp_path):
        extra = RepositoryGenerator(
            RepositoryProfile(target_node_count=60, min_tree_size=10, max_tree_size=30, seed=7)
        ).generate().tree(0)

        mutated = load_snapshot(snapshot_pair / "snap.json")
        mutated.remove_tree(2)
        tree = copy.deepcopy(extra)
        tree.tree_id = -1
        mutated.add_tree(tree)

        added = copy.deepcopy(extra)
        added.tree_id = -1
        target = tmp_path / "gen2.frozen"
        compact_frozen(
            snapshot_pair / "snap.frozen", target, add_trees=[added], remove_tree_ids=[2]
        )
        compacted = load_frozen_service(target)
        assert compacted.repository.tree_count == mutated.repository.tree_count
        for schema in (paper_personal_schema(), contact_personal_schema()):
            reference = mutated.match(schema)
            result = compacted.match(schema)
            assert result_key(result) == result_key(reference)
            assert path_records_key(result) == path_records_key(reference)

    def test_pure_copy_compaction_preserves_the_digest(self, snapshot_pair, tmp_path):
        target = tmp_path / "copy.frozen"
        compact_frozen(snapshot_pair / "snap.frozen", target)
        source = open_frozen(snapshot_pair / "snap.frozen", cached=False)
        copied = open_frozen(target, cached=False)
        assert copied.header["repository"]["digest"] == source.header["repository"]["digest"]
        assert copied.header["repository"]["node_count"] == source.header["repository"]["node_count"]

    def test_unknown_remove_id_is_rejected(self, snapshot_pair, tmp_path):
        with pytest.raises(ReproError):
            compact_frozen(
                snapshot_pair / "snap.frozen", tmp_path / "bad.frozen", remove_tree_ids=[10**6]
            )


class TestFrozenShardSet:
    def test_frozen_manifest_round_trip_is_bit_identical(self, tmp_path):
        repository = RepositoryGenerator(
            RepositoryProfile(
                target_node_count=700, min_tree_size=10, max_tree_size=55, seed=23, name="shards"
            )
        ).generate()
        service = ShardedMatchingService.from_repository(
            repository, 3, router=RoundRobinRouter(), element_threshold=0.5
        )
        manifest = write_shard_set(service, tmp_path, frozen=True)
        for entry in manifest["shards"]:
            assert entry["path"].endswith(".frozen")
            assert is_frozen_file(tmp_path / entry["path"])

        loaded = load_shard_set(tmp_path / "manifest.json")
        for shard in loaded.shards:
            assert type(shard.repository) is FrozenRepository
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert loaded.match(schema).ranking_key() == service.match(schema).ranking_key()


class TestRoundTripProperty:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16), nodes=st.integers(120, 320))
    def test_freeze_load_equals_json_load(self, seed, nodes):
        service = make_service(seed=seed, nodes=nodes)
        with tempfile.TemporaryDirectory() as scratch:
            base = Path(scratch)
            write_snapshot(service, base / "snap.json")
            freeze_service(service, base / "snap.frozen")
            json_loaded = load_snapshot(base / "snap.json")
            frozen_loaded = load_snapshot(base / "snap.frozen")
            for schema in (paper_personal_schema(), contact_personal_schema()):
                assert full_key(frozen_loaded.match(schema)) == full_key(json_loaded.match(schema))
