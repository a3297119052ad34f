"""The four workloads: set-up, operations, span wrappers and reference passes.

Each workload drives the program only through its public surface — the
``Matcher`` methods, ``add_tree``/``remove_tree``, the storage and shard-set
writers and loaders, and the TCP server — and answers five questions for the
runner in :mod:`benchlib.runner`: how to set a backend up, how to run one
operation, which instance methods the traced run wraps, how a plain reference
service answers the same operations, and what the counters of a serial replay
of the first operations are.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.api import encode
from repro.api.dispatch import RequestDispatcher
from repro.api.envelope import MatchOptions
from repro.api.server import MatcherServer
from repro.schema.serialization import tree_from_dict
from repro.service import MatchingService
from repro.service.fingerprint import schema_fingerprint
from repro.service.snapshot import load_snapshot
from repro.shard import ShardedMatchingService, load_shard_set, write_shard_set
from repro.shard.service import copy_tree
from repro.storage import FrozenSnapshot, freeze_service, is_frozen_file
from repro.utils.executor import ProcessPoolTaskExecutor
from repro.workload.trace import ranking_digest

from benchlib.inputs import PAPER_SCHEMAS, SHARD_CACHE, Inputs, Mutation, sha256_json
from benchlib.metrics import FAILED_LATENCY
from benchlib.tracing import Tracer

#: paper-complete: the paper's k-means variant with complete Δ >= δ search.
PAPER_VARIANT = "medium"
PAPER_THRESHOLD = 0.45
PAPER_DELTA = 0.55
#: cold-mutate: the service's default element threshold, at which element
#: matching is the largest layer of a top-5 query over cold names.
COLD_THRESHOLD = 0.6
COLD_TOP_K = 5
#: shard-batch: shard count, worker processes, matching configuration.
SHARDS = 4
SHARD_WORKERS = 2
SHARD_THRESHOLD = 0.5
SHARD_DELTA = 0.6
#: serve-zipf: concurrent requests the server admits, client connections.
SERVE_IN_FLIGHT = 2
SERVE_CONNECTIONS = 2
#: Largest response line a client accepts.
CLIENT_LINE_LIMIT = 64 << 20


@dataclass
class OpRecord:
    """One operation as the caller saw it."""

    index: int
    kind: str  # "query" | "mutation" | "batch"
    start: float
    end: float
    queries: int
    #: One ranking digest per query the operation answered (None: failed).
    digests: List[Optional[str]] = field(default_factory=list)
    #: Size of the response line (serve-zipf).
    response_bytes: int = 0
    failed: bool = False
    #: Program counters of each answered query.
    counters: List[Dict[str, int]] = field(default_factory=list)
    #: Answers not yet digested (result objects or response lines); see settle().
    results: List[Any] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return FAILED_LATENCY if self.failed else self.end - self.start


@dataclass
class Backend:
    """A set-up system ready to answer its first query."""

    matcher: Any
    #: Named set-up phases (``freeze_s``, ``open_ms``) for the storage ledger.
    phases: Dict[str, float] = field(default_factory=dict)
    #: The files the backend serves from (snapshot or shard set).
    snapshot_paths: List[Path] = field(default_factory=list)
    #: Workload-specific live state (added tree ids, server, executor, ...).
    state: Dict[str, Any] = field(default_factory=dict)
    closers: List[Any] = field(default_factory=list)

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()


def snapshot_stats(paths: List[Path]) -> Tuple[int, int, Optional[str]]:
    """Total bytes, bytes in ``oracle/`` segments and a digest of the frozen headers."""
    total = oracle = 0
    headers = []
    for path in paths:
        total += path.stat().st_size
        if is_frozen_file(path):
            header = FrozenSnapshot(path).header
            headers.append(header)
            oracle += sum(
                segment["length"]
                for segment in header["segments"]
                if segment["name"].startswith("oracle/")
            )
    return total, oracle, sha256_json(headers) if headers else None


def _result_failed(result) -> bool:
    return bool(getattr(result, "partial", False) or getattr(result, "degraded", False))


def wire_ranking_digest(response: Dict[str, Any]) -> str:
    """The ranking digest of a v1 ``match_response`` (exact score bits, paths)."""
    ranking = [
        (
            record["score"],
            record["tree_id"],
            tuple(
                (entry["personal"], entry["repository"], entry["similarity"])
                for entry in record["assignment"]
            ),
        )
        for record in response["mappings"]
    ]
    return hashlib.sha256(repr((response["mapping_count"], ranking)).encode("utf-8")).hexdigest()


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    #: Operations per unit; a timed block only ends on a unit boundary.
    unit_ops = 1
    #: Operations run before timing starts (lazy state, caches).
    warmup_ops = 1
    #: Operations of the serial count pass.
    count_ops = 1
    #: Operations run by client connections over the socket (else in process).
    serves_over_socket = False

    def setup(self, repository, inputs: Inputs, workdir: Path) -> Backend:
        raise NotImplementedError

    def run_op(self, backend: Backend, inputs: Inputs, index: int) -> OpRecord:
        raise NotImplementedError

    def instrument(self, backend: Backend, tracer: Tracer) -> None:
        raise NotImplementedError

    def reference(self, repository, inputs: Inputs, last_index: int) -> Dict[int, List[str]]:
        """Reference digests for every stream position up to ``last_index``."""
        raise NotImplementedError

    def counted_op(self, backend: Backend, inputs: Inputs, index: int) -> OpRecord:
        """One operation of the count pass (serial, counters captured)."""
        return self.run_op(backend, inputs, index)

    def stats(self, backend: Backend) -> Dict[str, Any]:
        return backend.matcher.stats()

    def task_bytes(self, backend: Backend, inputs: Inputs) -> Optional[bytes]:
        """Pickled bytes of one representative worker task (process pools only)."""
        return None


# -- in-process workloads ----------------------------------------------------------


def _timed(index: int, kind: str, call) -> Tuple[OpRecord, Any]:
    start = time.perf_counter()
    try:
        result = call()
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        end = time.perf_counter()
        return OpRecord(index, kind, start, end, 1, [None], failed=True), None
    end = time.perf_counter()
    return OpRecord(index, kind, start, end, 1), result


def _query(index: int, call) -> OpRecord:
    record, result = _timed(index, "query", call)
    if result is not None:
        record.results = [result]
    return record


def settle(record: OpRecord) -> None:
    """Digest the answers an operation left in ``record.results``.

    Kept apart from the operation so that digesting, the benchmark's own
    work, stays out of the timed call and out of the profiler pass.
    """
    pending, record.results = record.results, []
    for answer in pending:
        if isinstance(answer, bytes):
            decode_response(record, answer)
        elif _result_failed(answer):
            record.failed = True
            record.digests.append(None)
        else:
            record.digests.append(ranking_digest(answer))
            record.counters.append(answer.counters.as_dict())


def _wrap_pipeline(service: MatchingService, tracer: Tracer, entry: str) -> None:
    tracer.wrap(service, entry, "service.match")
    system = service.system
    tracer.wrap(system, "element_matching", "matchers")
    tracer.wrap(system, "cluster_candidates", "clustering")
    tracer.wrap(system, "generate_mappings", "mapping")


class PaperComplete(Workload):
    name = "paper-complete"
    unit_ops = len(PAPER_SCHEMAS)
    warmup_ops = len(PAPER_SCHEMAS)
    count_ops = len(PAPER_SCHEMAS)

    def _service(self, repository, cache: bool) -> MatchingService:
        return MatchingService(
            repository,
            variant=PAPER_VARIANT,
            element_threshold=PAPER_THRESHOLD,
            delta=PAPER_DELTA,
            **({} if cache else {"query_cache_size": 0}),
        )

    def setup(self, repository, inputs, workdir):
        service = self._service(repository, cache=True)
        service.build_derived_state()
        schemas = {name: build() for name, build in PAPER_SCHEMAS.items()}
        return Backend(service, state={"schemas": schemas})

    def run_op(self, backend, inputs, index):
        schema = backend.state["schemas"][inputs.op(index)]
        return _query(index, lambda: backend.matcher.match(schema))

    def instrument(self, backend, tracer):
        _wrap_pipeline(backend.matcher, tracer, "_match_schema")

    def reference(self, repository, inputs, last_index):
        service = self._service(repository, cache=False)
        digests = {
            name: ranking_digest(service.match(build())) for name, build in PAPER_SCHEMAS.items()
        }
        return {index: [digests[inputs.op(index)]] for index in range(last_index + 1)}


class ColdMutate(Workload):
    name = "cold-mutate"
    unit_ops = 5
    warmup_ops = 5
    count_ops = 10

    def setup(self, repository, inputs, workdir):
        service = MatchingService(repository, element_threshold=COLD_THRESHOLD)
        service.build_derived_state()
        return Backend(service, state={"added": []})

    @staticmethod
    def _apply(service, added: List[int], op: Mutation, inputs: Inputs, index: int) -> OpRecord:
        if op.kind == "add":
            tree = copy_tree(inputs.trees[op.tree_index])
            record, tree_id = _timed(index, "mutation", lambda: service.add_tree(tree))
            if tree_id is not None:
                added.append(tree_id)
        else:
            tree_id = added.pop()
            record, _ = _timed(index, "mutation", lambda: service.remove_tree(tree_id))
        record.queries = 0
        record.digests = []
        return record

    def run_op(self, backend, inputs, index):
        op = inputs.op(index)
        service = backend.matcher
        if isinstance(op, Mutation):
            return self._apply(service, backend.state["added"], op, inputs, index)
        return _query(index, lambda: service.match(op, top_k=COLD_TOP_K))

    def instrument(self, backend, tracer):
        service = backend.matcher
        _wrap_pipeline(service, tracer, "_match_schema")
        tracer.wrap(service, "add_tree", "service.mutation")
        tracer.wrap(service, "remove_tree", "service.mutation")

    def reference(self, repository, inputs, last_index):
        service = MatchingService(repository, element_threshold=COLD_THRESHOLD, query_cache_size=0)
        added: List[int] = []
        digests: Dict[int, List[str]] = {}
        for index in range(last_index + 1):
            op = inputs.op(index)
            if isinstance(op, Mutation):
                self._apply(service, added, op, inputs, index)
                digests[index] = []
            else:
                digests[index] = [ranking_digest(service.match(op, top_k=COLD_TOP_K))]
        return digests


def _noop(value: int) -> int:
    return value


class ShardBatch(Workload):
    name = "shard-batch"
    unit_ops = 1
    # Enough batches to fill the front-end cache: timing starts at its steady state.
    warmup_ops = 6
    count_ops = 3

    def setup(self, repository, inputs, workdir):
        start = time.perf_counter()
        sharded = ShardedMatchingService.from_repository(
            repository, SHARDS, element_threshold=SHARD_THRESHOLD, delta=SHARD_DELTA
        )
        manifest = workdir / "shards"
        write_shard_set(sharded, manifest, frozen=True)
        freeze_s = time.perf_counter() - start
        executor = ProcessPoolTaskExecutor(max_workers=SHARD_WORKERS)
        start = time.perf_counter()
        service = load_shard_set(
            manifest / "manifest.json", executor=executor, query_cache_size=SHARD_CACHE
        )
        open_ms = (time.perf_counter() - start) * 1000.0
        # Start the worker processes: the first batch must not pay for forking.
        executor.map(_noop, list(range(SHARD_WORKERS)))
        return Backend(
            service,
            phases={"freeze_s": freeze_s, "open_ms": open_ms},
            snapshot_paths=sorted(manifest.iterdir()),
            state={"executor": executor},
            closers=[executor.close],
        )

    def run_op(self, backend, inputs, index):
        batch = list(inputs.op(index))
        record, results = _timed(index, "batch", lambda: backend.matcher.match_many(batch))
        record.queries = len(batch)
        if results is None:
            record.digests = [None] * len(batch)
        else:
            record.results = list(results)
        return record

    def instrument(self, backend, tracer):
        tracer.wrap(backend.matcher, "_match_many_schemas", "shard.match_many")
        tracer.wrap(backend.state["executor"], "map", "shard.fanout")

    def reference(self, repository, inputs, last_index):
        service = MatchingService(
            repository,
            element_threshold=SHARD_THRESHOLD,
            delta=SHARD_DELTA,
            query_cache_size=0,
        )
        known: Dict[str, str] = {}
        digests: Dict[int, List[str]] = {}
        for index in range(last_index + 1):
            row = []
            for schema in inputs.op(index):
                fingerprint = schema_fingerprint(schema)
                if fingerprint not in known:
                    known[fingerprint] = ranking_digest(service.match(schema))
                row.append(known[fingerprint])
            digests[index] = row
        return digests

    def task_bytes(self, backend, inputs):
        shard = backend.matcher.shards[0]
        schema = inputs.op(0)[0]
        return pickle.dumps((shard, schema, None, None, None, None))


# -- serve-zipf: the TCP server ------------------------------------------------------


class _LoopThread:
    """An asyncio event loop on its own thread (the server and the clients share it)."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        # A daemon, so a set-up that fails before close() cannot keep the process alive.
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-loop", daemon=True
        )
        self.thread.start()

    def run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.close()


class _Client:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer


class ServeZipf(Workload):
    name = "serve-zipf"
    unit_ops = 1
    warmup_ops = 8
    count_ops = 24
    serves_over_socket = True

    def setup(self, repository, inputs, workdir):
        service = MatchingService(repository)
        path = workdir / "snapshot.frozen"
        start = time.perf_counter()
        freeze_service(service, path)
        freeze_s = time.perf_counter() - start
        start = time.perf_counter()
        matcher = load_snapshot(path)
        open_ms = (time.perf_counter() - start) * 1000.0
        loop = _LoopThread()
        server = MatcherServer(matcher, max_in_flight=SERVE_IN_FLIGHT)
        backend = Backend(
            matcher,
            phases={"freeze_s": freeze_s, "open_ms": open_ms},
            snapshot_paths=[path],
            state={"loop": loop, "server": server, "clients": []},
            closers=[loop.close],
        )
        loop.run(server.start())
        backend.closers.append(lambda: loop.run(self._stop(backend)))
        return backend

    @staticmethod
    async def _stop(backend: Backend) -> None:
        for client in backend.state["clients"]:
            client.writer.close()
            await client.writer.wait_closed()
        await backend.state["server"].stop()

    async def _connect(self, backend: Backend) -> None:
        server = backend.state["server"]
        for _ in range(SERVE_CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=CLIENT_LINE_LIMIT
            )
            await reader.readline()  # the "ready" envelope
            backend.state["clients"].append(_Client(reader, writer))

    @staticmethod
    async def _request(client: _Client, inputs: Inputs, index: int) -> OpRecord:
        line, _top_k = inputs.op(index)
        start = time.perf_counter()
        try:
            client.writer.write(line)
            await client.writer.drain()
            response = await client.reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return OpRecord(index, "query", start, time.perf_counter(), 1, [None], failed=True)
        record = OpRecord(index, "query", start, time.perf_counter(), 1)
        # The client reads its answer after the clock stopped, as a caller would.
        decode_response(record, response)
        return record

    def run_block(
        self,
        backend: Backend,
        inputs: Inputs,
        cursor: "Cursor",
        deadline: float,
        tracer: Optional[Tracer],
    ) -> List[OpRecord]:
        """Closed loop: every connection sends its next request once the last one is answered."""
        records: List[OpRecord] = []

        async def connection(client: _Client) -> None:
            while time.perf_counter() < deadline:
                record = await self._request(client, inputs, cursor.take())
                records.append(record)
                if tracer is not None:
                    tracer.record("api.client", record.index % len(inputs.ops), record.start, record.end)

        async def block() -> None:
            if not backend.state["clients"]:
                await self._connect(backend)
            await asyncio.gather(*(connection(client) for client in backend.state["clients"]))

        backend.state["loop"].run(block())
        return records

    def run_op(self, backend, inputs, index):
        async def one() -> OpRecord:
            if not backend.state["clients"]:
                await self._connect(backend)
            return await self._request(backend.state["clients"][0], inputs, index)

        return backend.state["loop"].run(one())

    def counted_op(self, backend, inputs, index):
        """Serial, in this thread, through the server's dispatcher (no socket)."""
        line, _top_k = inputs.op(index)
        dispatcher: RequestDispatcher = backend.state["server"].dispatcher
        start = time.perf_counter()
        response = dispatcher.handle_line(line.decode("utf-8"))
        end = time.perf_counter()
        record = OpRecord(index, "query", start, end, 1)
        record.results = [json.dumps(response).encode("utf-8")]
        return record

    def instrument(self, backend, tracer):
        dispatcher = backend.state["server"].dispatcher
        tracer.wrap(dispatcher, "handle_line", "api.handle", request_of=request_id_of_line)
        _wrap_pipeline(backend.matcher, tracer, "_match_many_schemas")

    def reference(self, repository, inputs, last_index):
        service = MatchingService(repository, query_cache_size=0)
        known: Dict[Tuple[str, Any], str] = {}
        digests: Dict[int, List[str]] = {}
        for index in range(last_index + 1):
            line, top_k = inputs.op(index)
            schema_payload = json.loads(line)["schema"]
            key = (json.dumps(schema_payload, sort_keys=True), top_k)
            if key not in known:
                schema = tree_from_dict(schema_payload)
                result = service.match(schema, top_k=top_k)
                wire = encode.match_response(
                    service.repository, schema, result, MatchOptions(top_k=top_k)
                ).to_wire()
                known[key] = wire_ranking_digest(json.loads(json.dumps(wire)))
            digests[index] = [known[key]]
        return digests


def request_id_of_line(line: str) -> Optional[int]:
    """The stream position a request line carries in its ``rq#<n>`` name."""
    at = line.find('"rq#')
    if at < 0:
        return None
    end = line.find('"', at + 4)
    return int(line[at + 4 : end])


def decode_response(record: OpRecord, response: bytes) -> None:
    """Digest one response line; error envelopes and partial/degraded answers fail."""
    record.response_bytes = len(response)
    try:
        payload = json.loads(response)
    except (json.JSONDecodeError, UnicodeDecodeError):
        payload = None
    if (
        not isinstance(payload, dict)
        or payload.get("kind") != "match_response"
        or payload.get("partial")
        or payload.get("degraded")
    ):
        record.failed = True
        record.digests.append(None)
        return
    record.digests.append(wire_ranking_digest(payload))
    record.counters.append(payload.get("counters", {}))


class Cursor:
    """The next stream position to run (shared by the connections of one run)."""

    def __init__(self) -> None:
        self.next = 0

    def take(self) -> int:
        index = self.next
        self.next += 1
        return index


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (ServeZipf(), PaperComplete(), ColdMutate(), ShardBatch())
}


def process_peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker processes."""
    import resource

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids = children.read_text().split()
        except OSError:
            continue
        for pid in pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peak_kb += int(line.split()[1])
    return peak_kb / 1024.0
