"""Process workers and the two ways repository state reaches them.

A per-cluster task reaches a worker process either by plain copy (an
in-memory service pickles its repository with the chunk) or by reopening a
frozen file (a frozen-loaded service pickles to the identity of the
generation it opened).  These tests pin the contract of both carriers:

* results are bit-identical to the serial path — rankings, path records and
  counters — for every executor, worker count and partition configuration;
* a worker never answers from a different frozen generation than the one the
  parent opened: a deleted or replaced file is refused with a typed
  :class:`~repro.errors.ReproError`;
* a worker-side failure reaches the caller as that typed error, never as a
  ``BrokenProcessPool``, and the same executor answers the next query.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from _equivalence import counters_key, execution_backends, path_records_key, result_key
from repro.clustering.baselines import FragmentClusterer
from repro.clustering.reclustering import join_and_remove
from repro.errors import ReproError
from repro.mapping.branch_and_bound import BranchAndBoundGenerator
from repro.matchers.name import NGramNameMatcher
from repro.objective.bellflower import BellflowerObjective
from repro.schema.builder import TreeBuilder
from repro.service import MatchingService, load_snapshot
from repro.shard import ShardedMatchingService, load_shard_set, write_shard_set
from repro.storage import freeze_service
from repro.storage.format import open_frozen, reopen_frozen
from repro.storage.frozen import FrozenRepository
from repro.utils.executor import ProcessPoolTaskExecutor
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import contact_personal_schema, paper_personal_schema


def make_repository(seed=97, nodes=400):
    profile = RepositoryProfile(
        target_node_count=nodes,
        min_tree_size=12,
        max_tree_size=50,
        name=f"carrier-test-{seed}",
        seed=seed,
    )
    return RepositoryGenerator(profile).generate()


def make_service(repository=None, **kwargs):
    kwargs.setdefault("variant", "partition")
    kwargs.setdefault("query_cache_size", 0)
    service = MatchingService(repository or make_repository(), **kwargs)
    service.build_derived_state()
    return service


def full_key(result):
    return (result_key(result), path_records_key(result), counters_key(result))


def contact_tree(name="added"):
    builder = TreeBuilder(name)
    root = builder.root("contact")
    builder.child(root, "name", datatype="string")
    builder.child(root, "email", datatype="string")
    builder.child(root, "address")
    return builder.build()


def count_then_build(oracle):
    """Worker task: how many tree oracles this process already holds for the
    oracle's repository, before building tree 0's."""
    before = oracle.built_oracle_count
    oracle.oracle(0)
    return before


def warmed_pool(workers=2):
    """A process executor whose workers exist before any snapshot is opened.

    Forked workers inherit the parent's open snapshots; starting them first
    forces every frozen task to reopen its file by identity.
    """
    executor = ProcessPoolTaskExecutor(max_workers=workers)
    executor.map(abs, list(range(-workers, 0)))
    return executor


class TestExecutorSweep:
    def test_backend_sweep_is_equivalent(self, tmp_path):
        """Serial × thread × process × process+frozen: one query, four regimes."""
        repository = make_repository(seed=173)
        schema = paper_personal_schema()
        freeze_service(make_service(repository), tmp_path / "sweep.frozen")
        keys = {}
        for name, executor_factory, frozen in execution_backends(max_workers=2):
            executor = executor_factory()
            try:
                if frozen:
                    service = load_snapshot(
                        tmp_path / "sweep.frozen", executor=executor, query_cache_size=0
                    )
                else:
                    service = make_service(repository, executor=executor)
                keys[name] = full_key(service.match(schema))
            finally:
                if executor is not None:
                    executor.close()
        serial = keys.pop("serial")
        assert set(keys) == {"thread", "process", "process+frozen"}
        for name, key in keys.items():
            assert key == serial, name

    def test_frozen_results_are_identical_across_worker_counts(self, tmp_path):
        repository = make_repository(seed=131)
        schema = paper_personal_schema()
        reference = make_service(repository)
        baseline = reference.match(schema, top_k=5)
        freeze_service(reference, tmp_path / "workers.frozen")
        for workers in (1, 2, 4):
            executor = ProcessPoolTaskExecutor(max_workers=workers)
            try:
                service = load_snapshot(
                    tmp_path / "workers.frozen", executor=executor, query_cache_size=0
                )
                result = service.match(schema, top_k=5)
                assert result_key(result) == result_key(baseline), workers
                assert path_records_key(result) == path_records_key(baseline), workers
            finally:
                executor.close()

    def test_frozen_shard_set_over_a_process_pool_matches_unsharded(self, tmp_path):
        repository = make_repository(seed=223)
        schema = paper_personal_schema()
        baseline = make_service(repository).match(schema, top_k=5)
        sharded = ShardedMatchingService.from_repository(repository, 3, query_cache_size=0)
        write_shard_set(sharded, tmp_path, frozen=True)
        executor = ProcessPoolTaskExecutor(max_workers=2)
        try:
            loaded = load_shard_set(
                tmp_path / "manifest.json", executor=executor, query_cache_size=0
            )
            for _ in range(2):
                result = loaded.match(schema, top_k=5)
                assert result_key(result) == result_key(baseline)
                assert path_records_key(result) == path_records_key(baseline)
        finally:
            executor.close()


class TestReclusteringAcrossProcesses:
    """A reclustered partition must survive both carriers unchanged."""

    def test_in_memory_and_frozen_match_serial(self, tmp_path):
        repository = make_repository(seed=211)
        serial = make_service(repository, partition_reclustering=join_and_remove())
        schemas = (paper_personal_schema(), contact_personal_schema())
        expected = [full_key(serial.match(schema)) for schema in schemas]
        freeze_service(serial, tmp_path / "reclustered.frozen")

        executor = ProcessPoolTaskExecutor(max_workers=2)
        try:
            in_memory = make_service(
                repository, partition_reclustering=join_and_remove(), executor=executor
            )
            frozen = load_snapshot(
                tmp_path / "reclustered.frozen",
                partition_reclustering=join_and_remove(),
                executor=executor,
                query_cache_size=0,
            )
            for service in (in_memory, frozen):
                assert [full_key(service.match(schema)) for schema in schemas] == expected
        finally:
            executor.close()


class TestFrozenGenerations:
    """Workers reopen exactly the generation the parent opened, or refuse."""

    @pytest.fixture()
    def generations(self, tmp_path):
        """``live.frozen`` holding generation A, and a staged generation B."""
        first = make_service(make_repository(seed=301))
        second = make_service(make_repository(seed=302))
        freeze_service(first, tmp_path / "live.frozen")
        freeze_service(second, tmp_path / "next.frozen")
        schema = paper_personal_schema()
        return {
            "live": tmp_path / "live.frozen",
            "next": tmp_path / "next.frozen",
            "schema": schema,
            "first": full_key(first.match(schema)),
            "second": full_key(second.match(schema)),
        }

    def test_frozen_views_pickle_to_their_generation(self, generations):
        service = load_snapshot(generations["live"])
        views = (service.repository, service.oracle, service.partition)
        payload = pickle.dumps(views)
        assert len(payload) < 2048  # an identity, not a copy of the repository
        repository, oracle, partition = pickle.loads(payload)
        assert repository.tree_count == service.repository.tree_count
        assert oracle.repository is repository

    def test_unchanged_file_still_attaches(self, generations):
        executor = warmed_pool()
        try:
            service = load_snapshot(generations["live"], executor=executor, query_cache_size=0)
            assert full_key(service.match(generations["schema"])) == generations["first"]
            # A repeat reuses the matcher's memo, so only the mapping identity
            # (not the element-stage counters) is comparable.
            repeat = service.match(generations["schema"])
            assert (result_key(repeat), path_records_key(repeat)) == generations["first"][:2]
        finally:
            executor.close()

    def test_deleted_file_is_refused_and_the_pool_survives(self, generations):
        executor = warmed_pool()
        try:
            service = load_snapshot(generations["live"], executor=executor, query_cache_size=0)
            os.unlink(generations["live"])
            for _ in range(2):
                with pytest.raises(ReproError, match="no longer"):
                    service.match(generations["schema"])
            survivor = load_snapshot(generations["next"], executor=executor, query_cache_size=0)
            assert full_key(survivor.match(generations["schema"])) == generations["second"]
        finally:
            executor.close()

    def test_replaced_file_is_refused_and_the_pool_survives(self, generations):
        executor = warmed_pool()
        try:
            service = load_snapshot(generations["live"], executor=executor, query_cache_size=0)
            os.replace(generations["next"], generations["live"])
            with pytest.raises(ReproError, match="replaced"):
                service.match(generations["schema"])
            # The same executor serves the new generation once it is loaded.
            current = load_snapshot(generations["live"], executor=executor, query_cache_size=0)
            assert full_key(current.match(generations["schema"])) == generations["second"]
        finally:
            executor.close()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the parent's open snapshots",
    )
    def test_inherited_mapping_answers_from_the_opened_generation(self, generations):
        executor = ProcessPoolTaskExecutor(max_workers=2)  # forks on first dispatch
        try:
            service = load_snapshot(generations["live"], executor=executor, query_cache_size=0)
            os.replace(generations["next"], generations["live"])
            assert full_key(service.match(generations["schema"])) == generations["first"]
        finally:
            executor.close()


class TestFrozenPayloads:
    """What a task payload carries, and what it rebuilds into, per carrier."""

    @pytest.fixture()
    def frozen_pair(self, tmp_path):
        """An in-memory service and its frozen-loaded twin (no executor)."""
        plain = make_service(make_repository(seed=97))
        freeze_service(plain, tmp_path / "pair.frozen")
        frozen = load_snapshot(tmp_path / "pair.frozen", query_cache_size=0)
        return plain, frozen, tmp_path / "pair.frozen"

    def test_in_memory_round_trip_is_bit_identical(self, frozen_pair):
        plain, _, _ = frozen_pair
        schema = paper_personal_schema()
        clone = pickle.loads(pickle.dumps(plain))
        assert clone.repository is not plain.repository
        assert full_key(clone.match(schema)) == full_key(plain.match(schema))

    def test_frozen_round_trip_is_bit_identical(self, frozen_pair):
        plain, frozen, _ = frozen_pair
        schema = paper_personal_schema()
        clone = pickle.loads(pickle.dumps(frozen))
        assert full_key(clone.match(schema)) == full_key(plain.match(schema))

    def test_frozen_pickles_are_an_identity_not_a_copy(self, frozen_pair):
        plain, frozen, _ = frozen_pair
        assert len(pickle.dumps(frozen.repository)) < 256 < len(pickle.dumps(plain.repository))
        assert len(pickle.dumps(frozen.partition)) < 256 < len(pickle.dumps(plain.partition))
        assert len(pickle.dumps(frozen)) < 2048 < len(pickle.dumps(plain))
        # The oracle facade is stateless: its repository plus a class reference.
        for service in (plain, frozen):
            service.oracle.build_all()
            oracle_bytes = len(pickle.dumps(service.oracle))
            assert oracle_bytes - len(pickle.dumps(service.repository)) < 128

    def test_reopened_oracle_answers_like_the_original(self, frozen_pair):
        plain, frozen, _ = frozen_pair
        reopened = pickle.loads(pickle.dumps(frozen.oracle))
        assert reopened.repository is pickle.loads(pickle.dumps(frozen.repository))
        assert reopened.built_oracle_count == 0
        repository = plain.repository
        for tree_id in range(repository.tree_count):
            tree = repository.tree(tree_id)
            first = repository.ref(tree_id, 0)
            last = repository.ref(tree_id, tree.node_count - 1)
            assert reopened.distance(first, last) == plain.oracle.distance(first, last)
            assert reopened.path_mask(first, last) == plain.oracle.path_mask(first, last)
        assert reopened.built_oracle_count == repository.tree_count

    def test_unpickled_services_share_one_oracle_per_tree(self, frozen_pair):
        _, frozen, _ = frozen_pair
        first = pickle.loads(pickle.dumps(frozen))
        first.match(paper_personal_schema())
        built = first.oracle.built_oracle_count
        assert built > 0
        second = pickle.loads(pickle.dumps(frozen))
        assert second.oracle.built_oracle_count == built
        for tree_id in range(first.repository.tree_count):
            assert second.oracle.oracle(tree_id) is first.oracle.oracle(tree_id)

    def test_a_worker_reuses_its_oracles_across_tasks(self, frozen_pair):
        _, frozen, _ = frozen_pair
        with ProcessPoolExecutor(max_workers=1) as pool:
            counts = [pool.submit(count_then_build, frozen.oracle).result() for _ in range(2)]
        assert counts == [0, 1]

    def test_in_memory_pickles_carry_no_oracle_rows(self, frozen_pair):
        plain, _, _ = frozen_pair
        assert plain.oracle.built_oracle_count == plain.repository.tree_count
        payload = pickle.dumps(plain.oracle)
        assert b"TreeDistanceOracle" not in payload
        clone = pickle.loads(payload)
        assert clone.built_oracle_count == 0
        repository = plain.repository
        first, last = repository.ref(0, 0), repository.ref(0, repository.tree(0).node_count - 1)
        assert clone.distance(first, last) == plain.oracle.distance(first, last)
        assert clone.built_oracle_count == 1

    def test_reopen_reuses_the_process_mapping(self, frozen_pair):
        _, frozen, path = frozen_pair
        snapshot = frozen.repository._snapshot
        assert reopen_frozen(snapshot.identity) is snapshot
        assert open_frozen(path) is snapshot
        reopened = pickle.loads(pickle.dumps(frozen.repository))
        assert reopened is pickle.loads(pickle.dumps(frozen.repository))


class TestReopenIdentity:
    """``reopen_frozen`` in a process that has not mapped the generation."""

    @pytest.fixture()
    def unmapped(self, tmp_path):
        """A frozen file and the identity of a mapping kept out of the cache."""
        freeze_service(make_service(make_repository(seed=97)), tmp_path / "live.frozen")
        freeze_service(make_service(make_repository(seed=98)), tmp_path / "next.frozen")
        snapshot = open_frozen(tmp_path / "live.frozen", cached=False)
        return snapshot, tmp_path

    def test_unchanged_file_reopens(self, unmapped):
        snapshot, tmp_path = unmapped
        assert reopen_frozen(snapshot.identity).identity == snapshot.identity

    def test_deleted_file_is_refused(self, unmapped):
        snapshot, tmp_path = unmapped
        os.unlink(tmp_path / "live.frozen")
        with pytest.raises(ReproError, match="no longer"):
            reopen_frozen(snapshot.identity)

    def test_replaced_file_is_refused(self, unmapped):
        snapshot, tmp_path = unmapped
        os.replace(tmp_path / "next.frozen", tmp_path / "live.frozen")
        with pytest.raises(ReproError, match="replaced"):
            reopen_frozen(snapshot.identity)

    def test_same_size_and_mtime_on_a_new_inode_is_a_new_generation(self, unmapped):
        snapshot, tmp_path = unmapped
        live = tmp_path / "live.frozen"
        before = live.stat()
        twin = tmp_path / "twin.frozen"
        twin.write_bytes(live.read_bytes())
        os.utime(twin, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(twin, live)
        after = live.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert after.st_ino != before.st_ino
        with pytest.raises(ReproError, match="replaced"):
            reopen_frozen(snapshot.identity)
        assert open_frozen(live).identity != snapshot.identity


class TestThawedFrozenServices:
    """After a mutation a frozen-loaded service crosses processes by copy."""

    @pytest.fixture()
    def frozen_path(self, tmp_path):
        freeze_service(make_service(make_repository(seed=97)), tmp_path / "thaw.frozen")
        return tmp_path / "thaw.frozen"

    def test_service_mutation_pickles_by_copy(self, frozen_path):
        service = load_snapshot(frozen_path, query_cache_size=0)
        service.add_tree(contact_tree())
        assert not isinstance(service.repository, FrozenRepository)
        blob = pickle.dumps(service.oracle)
        assert len(blob) > 256  # the copy path, not a reopen
        clone = pickle.loads(blob)
        assert clone.repository.tree_count == service.repository.tree_count

    def test_direct_repository_mutation_pickles_by_copy(self, frozen_path):
        service = load_snapshot(frozen_path, query_cache_size=0)
        service.repository.add_tree(contact_tree("side-channel"))
        blob = pickle.dumps(service.oracle)
        assert len(blob) > 256
        clone = pickle.loads(blob)
        assert clone.repository.tree_count == service.repository.tree_count

    @pytest.mark.parametrize("mutation", ["add", "add+remove"])
    def test_mutated_service_over_a_process_pool_matches_serial(self, frozen_path, mutation):
        reference = make_service(make_repository(seed=97))
        executor = ProcessPoolTaskExecutor(max_workers=2)
        try:
            service = load_snapshot(frozen_path, executor=executor, query_cache_size=0)
            for target in (reference, service):
                target.add_tree(contact_tree())
                if mutation == "add+remove":
                    target.remove_tree(3)
            for schema in (paper_personal_schema(), contact_personal_schema()):
                assert full_key(service.match(schema)) == full_key(reference.match(schema))
            assert executor.last_workers_used == 2
        finally:
            executor.close()


class _CustomMatcher(NGramNameMatcher):
    pass


class _CustomObjective(BellflowerObjective):
    pass


class _CustomGenerator(BranchAndBoundGenerator):
    pass


_CUSTOM_COMPONENTS = {
    "matcher": lambda: {"matcher": _CustomMatcher()},
    "objective": lambda: {"objective": _CustomObjective()},
    "generator": lambda: {"generator": _CustomGenerator()},
    "clusterer": lambda: {"variant": None, "clusterer": FragmentClusterer(max_fragment_size=10)},
}


class TestCustomComponents:
    """User-supplied components travel by copy with the chunk."""

    @pytest.mark.parametrize("component", sorted(_CUSTOM_COMPONENTS))
    def test_custom_component_crosses_the_process_boundary(self, component):
        repository = make_repository(seed=151)
        schema = paper_personal_schema()
        serial = make_service(repository, **_CUSTOM_COMPONENTS[component]())
        executor = ProcessPoolTaskExecutor(max_workers=2)
        try:
            service = make_service(
                repository, executor=executor, **_CUSTOM_COMPONENTS[component]()
            )
            assert full_key(service.match(schema)) == full_key(serial.match(schema))
            assert executor.last_workers_used == 2
        finally:
            executor.close()


class TestInMemoryShards:
    def test_in_memory_shards_over_a_process_pool_match_unsharded(self):
        repository = make_repository(seed=211)
        schema = paper_personal_schema()
        baseline = make_service(repository).match(schema, top_k=5)
        executor = ProcessPoolTaskExecutor(max_workers=2)
        sharded = ShardedMatchingService.from_repository(
            repository, 3, executor=executor, query_cache_size=0
        )
        try:
            for _ in range(2):
                result = sharded.match(schema, top_k=5)
                assert result_key(result) == result_key(baseline)
                assert path_records_key(result) == path_records_key(baseline)
        finally:
            sharded.close()
            executor.close()
