"""Seeded inputs of the four workloads.

Every input is a pure function of the workload seed: the same seed gives
byte-identical inputs, another seed gives other query streams and mutation
trees.  The repository (the paper-profile generated forest of the default
:class:`~repro.workload.RepositoryProfile`, ~9,750 nodes) and the query pools
the zipf workloads draw from are the same for every seed, so a seed changes
the load a workload puts on the system, not the corpus or the population of
queries.  Each input is reduced to a sha256 for the run record.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Dict, List

from repro.api.envelope import MatchOptions, MatchRequest
from repro.schema.builder import TreeBuilder
from repro.schema.repository import SchemaRepository
from repro.schema.serialization import tree_to_dict
from repro.schema.tree import SchemaTree
from repro.service.fingerprint import schema_fingerprint
from repro.utils.rng import SeededRandom, derive_seed
from repro.workload import (
    DOMAINS,
    NamePerturber,
    RepositoryGenerator,
    RepositoryProfile,
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)
from repro.workload.trace import query_pool

#: Stream lengths.  A run that reaches the end of its stream wraps around, so
#: these only need to exceed what one run usually consumes.
SERVE_REQUESTS = 2000
PAPER_ROUNDS = 400
COLD_OPS = 1500
SHARD_BATCHES = 600

#: Query pools are built from this fixed seed; the workload seed drives the
#: draws from them, so every seed samples the same population of query costs.
POOL_SEED = 20060403
#: Zipf skew of every draw (that of ``synthesize_zipf_trace``).
ZIPF_SKEW = 1.1

#: serve-zipf: requests per stratified round (half of them ask for top 5).
SERVE_ROUND = 16
#: cold-mutate: every MUTATE_EVERY-th operation is a write (add, remove, add, ...).
MUTATE_EVERY = 5
#: shard-batch: queries per ``match_many`` batch and size of the
#: perturbed-schema pool the batches draw from (4x the front-end cache).
SHARD_BATCH_SIZE = 8
SHARD_CACHE = 16
SHARD_POOL = 4 * SHARD_CACHE

#: paper-complete: the paper's three personal schemas, by name.
PAPER_SCHEMAS = {
    "paper": paper_personal_schema,
    "contact": contact_personal_schema,
    "book": book_personal_schema,
}


def sha256_json(payload: Any) -> str:
    """sha256 of one canonical JSON rendering (sorted keys, no whitespace)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_repository() -> SchemaRepository:
    """A fresh copy of the paper-profile repository (identical for every call)."""
    return RepositoryGenerator(RepositoryProfile()).generate()


def repository_digest(repository: SchemaRepository) -> str:
    return sha256_json([tree_to_dict(tree) for tree in repository.trees()])


@dataclass(frozen=True)
class Mutation:
    """One cold-mutate write: add mutation tree ``tree_index`` or remove the last added tree."""

    kind: str  # "add" | "remove"
    tree_index: int = -1


@dataclass
class Inputs:
    """Everything one workload run feeds the program, plus the digests of it."""

    workload: str
    seed: int
    #: The operation stream; what an entry is depends on the workload.
    ops: List[Any]
    #: Trees the cold-mutate writes add (empty elsewhere).
    trees: List[SchemaTree] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)

    def op(self, index: int) -> Any:
        return self.ops[index % len(self.ops)]


def perturbed_schema(rng: SeededRandom, perturber: NamePerturber, name: str) -> SchemaTree:
    """A five-node personal schema: one domain's words passed through the perturber."""
    domain = rng.choice(DOMAINS)
    builder = TreeBuilder(name)
    root = builder.root(perturber.perturb(rng.choice(list(domain.roots))))
    container = builder.child(root, perturber.perturb(rng.choice(list(domain.containers))))
    for leaf in rng.sample(list(domain.leaves), k=3):
        builder.child(container, perturber.perturb(leaf), datatype="string")
    return builder.build()


def distinct_schemas(
    rng: SeededRandom, perturber: NamePerturber, prefix: str, count: int
) -> List[SchemaTree]:
    """``count`` perturbed schemas, no two with the same fingerprint."""
    schemas: List[SchemaTree] = []
    seen = set()
    while len(schemas) < count:
        schema = perturbed_schema(rng, perturber, f"{prefix}-{len(schemas)}")
        fingerprint = schema_fingerprint(schema)
        if fingerprint not in seen:
            seen.add(fingerprint)
            schemas.append(schema)
    return schemas


def request_line(schema: Dict[str, Any], top_k, request_id: int) -> bytes:
    """One v1 ``match`` envelope as a wire line.

    The envelope's ``name`` carries the request id (``rq#<n>``); the name only
    labels the personal tree, so it changes neither the cache key nor the
    ranking, and the traced run reads the id back out of the line.
    """
    request = MatchRequest(
        schema=schema,
        schema_format="tree",
        name=f"rq#{request_id}",
        options=MatchOptions(top_k=top_k),
    )
    return (json.dumps(request.to_wire()) + "\n").encode("utf-8")


def stratified_zipf(rng: SeededRandom, size: int, slots: int) -> List[int]:
    """``slots`` zipf-weighted draws from ranks ``0..size-1``, in random order.

    Slot ``i`` draws from the ``i``-th ``1/slots`` of the probability mass:
    every rank keeps its zipf probability, but each round of ``slots`` draws
    holds about the same mix of hot and cold queries, so what a run costs
    depends on the program more than on the luck of the draw.
    """
    cumulative = list(accumulate(1.0 / (rank**ZIPF_SKEW) for rank in range(1, size + 1)))
    picks = [
        min(bisect_left(cumulative, (slot + rng.random()) / slots * cumulative[-1]), size - 1)
        for slot in range(slots)
    ]
    return rng.shuffle(picks)


def _serve_zipf(seed: int) -> Inputs:
    # The pool ``synthesize_zipf_trace`` draws from: the experiment's personal
    # schemas first, then one small schema per vocabulary domain.
    pool = [tree_to_dict(schema) for schema in query_pool(POOL_SEED)]
    rng = SeededRandom(derive_seed(seed, "serve-zipf"))
    ops = []
    for _ in range(SERVE_REQUESTS // SERVE_ROUND):
        top_ks = rng.shuffle([None, 5] * (SERVE_ROUND // 2))
        for index, top_k in zip(stratified_zipf(rng, len(pool), SERVE_ROUND), top_ks):
            ops.append((request_line(pool[index], top_k, len(ops)), top_k))
    digests = {"query_stream": hashlib.sha256(b"".join(line for line, _ in ops)).hexdigest()}
    return Inputs("serve-zipf", seed, ops, digests=digests)


def _paper_complete(seed: int) -> Inputs:
    rng = SeededRandom(derive_seed(seed, "paper-complete"))
    ops: List[str] = []
    for _ in range(PAPER_ROUNDS):
        ops.extend(rng.shuffle(list(PAPER_SCHEMAS)))
    digests = {
        "query_stream": sha256_json(ops),
        "schemas": sha256_json({name: tree_to_dict(build()) for name, build in PAPER_SCHEMAS.items()}),
    }
    return Inputs("paper-complete", seed, ops, digests=digests)


def _cold_mutate(seed: int) -> Inputs:
    rng = SeededRandom(derive_seed(seed, "cold-mutate"))
    perturber = NamePerturber(rng.spawn("names"))
    writes = COLD_OPS // MUTATE_EVERY
    queries = distinct_schemas(rng, perturber, "cold", COLD_OPS - writes)
    adds = (writes + 1) // 2
    # Mutation trees come from their own generator run: same shape as the
    # repository, but another seed, so every add brings new names.
    pool = RepositoryGenerator(
        RepositoryProfile(
            target_node_count=60 * adds,
            seed=derive_seed(seed, "cold-mutate-trees"),
            name="cold-mutate-trees",
        )
    ).generate()
    trees = list(pool.trees())
    ops: List[Any] = []
    next_query = added = 0
    for index in range(COLD_OPS):
        if index % MUTATE_EVERY == MUTATE_EVERY - 1:
            write = index // MUTATE_EVERY
            if write % 2 == 0:
                ops.append(Mutation("add", added % len(trees)))
                added += 1
            else:
                ops.append(Mutation("remove"))
        else:
            ops.append(queries[next_query])
            next_query += 1
    digests = {
        "query_stream": sha256_json(
            [
                {"mutation": op.kind, "tree": op.tree_index}
                if isinstance(op, Mutation)
                else tree_to_dict(op)
                for op in ops
            ]
        ),
        "mutation_trees": sha256_json([tree_to_dict(tree) for tree in trees]),
    }
    return Inputs("cold-mutate", seed, ops, trees=trees, digests=digests)


def _shard_batch(seed: int) -> Inputs:
    pool_rng = SeededRandom(POOL_SEED)
    pool = distinct_schemas(pool_rng, NamePerturber(pool_rng.spawn("names")), "pool", SHARD_POOL)
    rng = SeededRandom(derive_seed(seed, "shard-batch"))
    picks = [stratified_zipf(rng, SHARD_POOL, SHARD_BATCH_SIZE) for _ in range(SHARD_BATCHES)]
    ops = [tuple(pool[index] for index in batch) for batch in picks]
    digests = {
        "query_stream": sha256_json(picks),
        "query_pool": sha256_json([tree_to_dict(schema) for schema in pool]),
    }
    return Inputs("shard-batch", seed, ops, digests=digests)


_BUILDERS = {
    "serve-zipf": _serve_zipf,
    "paper-complete": _paper_complete,
    "cold-mutate": _cold_mutate,
    "shard-batch": _shard_batch,
}


def build_inputs(workload: str, seed: int) -> Inputs:
    """The workload's inputs for ``seed`` (the repository digest included)."""
    inputs = _BUILDERS[workload](seed)
    inputs.digests["repository"] = repository_digest(make_repository())
    return inputs

