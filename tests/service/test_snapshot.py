"""Snapshot round-trip tests: serialize → load → bit-identical behaviour.

A snapshot persists *derived* state, so a bug here would not crash — it would
silently return wrong distances or wrong candidates.  The tests therefore pin
exact equality between a loaded service and the one that wrote the snapshot,
for every structure the snapshot carries.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.reclustering import join_and_remove
from repro.errors import ClusteringError, ReproError
from repro.matchers.name import FuzzyNameMatcher, NGramNameMatcher, TokenNameMatcher
from repro.service import (
    MatchingService,
    RepositoryPartition,
    load_snapshot,
    service_to_snapshot_dict,
    snapshot_to_service,
    write_snapshot,
)
from repro.service.snapshot import _pack_ints
from repro.storage import freeze_snapshot_file
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)

from _equivalence import candidates_key, counters_key, path_records_key, result_key


def make_repository(seed: int, nodes: int = 450):
    profile = RepositoryProfile(
        target_node_count=nodes, min_tree_size=10, max_tree_size=45, seed=seed, name=f"snap-{seed}"
    )
    return RepositoryGenerator(profile).generate()


def legacy_oracles(repository):
    """The ``oracles`` key older builds wrote, rebuilt here from the trees.

    Per tree: the Euler tour (nodes and depths), each node's first tour index
    and the sparse-table argmin rows over the tour depths (levels from 1 up,
    ties to the left, flattened), every array packed with ``_pack_ints``.
    """
    entries = {}
    for tree in repository.trees():
        nodes, depths, first = [], [], [-1] * tree.node_count

        def tour(node_id):
            first[node_id] = len(nodes)
            nodes.append(node_id)
            depths.append(tree.depth(node_id))
            for child_id in tree.children_ids(node_id):
                tour(child_id)
                nodes.append(node_id)
                depths.append(tree.depth(node_id))

        tour(tree.root_id)
        rows, previous, level = [], list(range(len(depths))), 1
        while 1 << level <= len(depths):
            half = 1 << (level - 1)
            previous = [
                left if depths[left] <= depths[right] else right
                for left, right in (
                    (previous[i], previous[i + half]) for i in range(len(depths) - (1 << level) + 1)
                )
            ]
            rows.extend(previous)
            level += 1
        entries[str(tree.tree_id)] = {
            "euler_nodes": _pack_ints(nodes),
            "euler_depths": _pack_ints(depths),
            "first_occurrence": _pack_ints(first),
            "rmq": _pack_ints(rows),
        }
    return entries


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("threshold", [0.45, 0.6])
    def test_match_results_bit_identical(self, tmp_path, seed, threshold):
        service = MatchingService(make_repository(seed), element_threshold=threshold)
        path = tmp_path / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        for schema in (paper_personal_schema(), contact_personal_schema(), book_personal_schema()):
            original = service.match(schema)
            restored = loaded.match(schema)
            assert candidates_key(original.candidates) == candidates_key(restored.candidates)
            assert result_key(original) == result_key(restored)

    def test_snapshot_is_plain_json_and_complete(self, tmp_path):
        service = MatchingService(make_repository(3), element_threshold=0.5)
        path = tmp_path / "snapshot.json"
        payload = write_snapshot(service, path)
        reread = json.loads(path.read_text(encoding="utf-8"))
        assert reread == payload
        repository = service.repository
        assert "oracles" not in payload  # rebuilt per process, never persisted
        assert payload["partition"] is not None
        assert len(payload["partition"]["fragments"]) == repository.tree_count
        assert len(payload["name_indexes"]) == 1
        from repro.service.snapshot import _unpack_ints

        entry = payload["name_indexes"][0]
        assert len(_unpack_ints(entry["node_name_ids"])) == repository.node_count
        assert entry["blocking"] is not None  # warm-up built the trigram structures

    def test_loaded_service_needs_no_rebuild(self, tmp_path):
        """Every partition row must be present post-load, not lazily rebuilt."""
        service = MatchingService(make_repository(5), element_threshold=0.5)
        path = tmp_path / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        assert loaded.partition.built_tree_count == loaded.repository.tree_count
        assert loaded.repository.cached_name_indexes()  # index installed, not lazy

    def test_oracles_build_on_first_use_after_load(self, tmp_path):
        repository = make_repository(9)
        service = MatchingService(repository, element_threshold=0.5)
        path = tmp_path / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        assert loaded.oracle.built_oracle_count == 0
        schema = contact_personal_schema()
        assert result_key(loaded.match(schema)) == result_key(service.match(schema))
        assert 0 < loaded.oracle.built_oracle_count <= repository.tree_count

    def test_legacy_oracles_key_is_ignored(self, tmp_path):
        """A version 1 document from an older build still carries ``oracles``."""
        repository = make_repository(9)
        service = MatchingService(repository, element_threshold=0.5)
        payload = service_to_snapshot_dict(service)
        payload["oracles"] = legacy_oracles(repository)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_snapshot(path)
        assert loaded.oracle.built_oracle_count == 0
        freeze_snapshot_file(path, tmp_path / "legacy.frozen")
        frozen = load_snapshot(tmp_path / "legacy.frozen")
        for schema in (paper_personal_schema(), contact_personal_schema(), book_personal_schema()):
            expected = service.match(schema)
            for restored in (loaded.match(schema), frozen.match(schema)):
                assert candidates_key(restored.candidates) == candidates_key(expected.candidates)
                assert result_key(restored) == result_key(expected)
                assert path_records_key(restored) == path_records_key(expected)
                assert counters_key(restored) == counters_key(expected)

    @pytest.mark.parametrize(
        "matcher",
        [
            FuzzyNameMatcher(case_sensitive=True),
            NGramNameMatcher(),
            TokenNameMatcher(),
        ],
        ids=["fuzzy-cs", "ngram", "token"],
    )
    def test_bundled_matchers_round_trip(self, tmp_path, matcher):
        service = MatchingService(make_repository(2, nodes=250), matcher=matcher, element_threshold=0.5)
        path = tmp_path / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        schema = paper_personal_schema()
        assert result_key(service.match(schema)) == result_key(loaded.match(schema))

    @pytest.mark.parametrize("variant", ["medium", "tree"])
    def test_variant_services_round_trip(self, tmp_path, variant):
        service = MatchingService(make_repository(4, nodes=300), variant=variant, element_threshold=0.5)
        path = tmp_path / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        assert loaded.variant_name == variant
        schema = paper_personal_schema()
        assert result_key(service.match(schema)) == result_key(loaded.match(schema))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_round_trip_property(self, tmp_path_factory, seed):
        """Property form of the round-trip guarantee over generated forests."""
        service = MatchingService(make_repository(seed, nodes=150), element_threshold=0.5)
        path = tmp_path_factory.mktemp("snap") / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        schema = paper_personal_schema()
        original = service.match(schema)
        restored = loaded.match(schema)
        assert candidates_key(original.candidates) == candidates_key(restored.candidates)
        assert result_key(original) == result_key(restored)


class TestSnapshotValidation:
    def test_rejects_wrong_format_and_version(self):
        with pytest.raises(ReproError):
            snapshot_to_service({"format": "something-else"})
        service = MatchingService(make_repository(6, nodes=150), element_threshold=0.5)
        payload = service_to_snapshot_dict(service)
        payload["version"] = 999
        with pytest.raises(ReproError):
            snapshot_to_service(payload)

    def test_custom_matcher_requires_override(self):
        class WeirdMatcher(FuzzyNameMatcher):
            pass

        service = MatchingService(
            make_repository(6, nodes=150), matcher=WeirdMatcher(), element_threshold=0.5
        )
        payload = service_to_snapshot_dict(service)
        assert payload["config"]["matcher"] is None
        with pytest.raises(ReproError):
            snapshot_to_service(payload)
        loaded = snapshot_to_service(payload, matcher=WeirdMatcher())
        schema = paper_personal_schema()
        assert result_key(service.match(schema)) == result_key(loaded.match(schema))

    def test_partition_reclustering_requires_override(self):
        partition_payload = RepositoryPartition(
            max_fragment_size=10, reclustering=join_and_remove()
        ).to_payload()
        with pytest.raises(ClusteringError):
            RepositoryPartition.from_payload(partition_payload)
        restored = RepositoryPartition.from_payload(
            partition_payload, reclustering=join_and_remove()
        )
        assert restored.max_fragment_size == 10
