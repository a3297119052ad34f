"""Golden rankings, path records and search counters across commits.

The equivalence suites compare two code paths of the *same* build; nothing
else notices when a refactor of the search core or of the path-edge algebra
silently shifts what every path computes.  This module pins, for the paper,
contact and book schemas on the default generated repository (k-means
``medium`` clustering, element threshold 0.45, δ 0.55), the ranking digest,
a digest of the mappings' ``|Et|`` path records and the search counters of
each generator.  A change that moves any of them must say so and re-pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.mapping import (
    AStarGenerator,
    BeamSearchGenerator,
    BranchAndBoundGenerator,
    MappingProblem,
    PartialMappingGenerator,
)
from repro.system.bellflower import Bellflower
from repro.system.variants import clustering_variant
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)
from repro.workload.trace import ranking_digest

SCHEMAS = {
    "paper": paper_personal_schema,
    "contact": contact_personal_schema,
    "book": book_personal_schema,
}
GENERATORS = {
    "depth-first": BranchAndBoundGenerator,
    "best-first": AStarGenerator,
    "beam": lambda: BeamSearchGenerator(beam_width=50),
}
SEARCH_COUNTERS = ("partial_mappings", "bound_evaluations", "pruned_partial_mappings", "evaluated_mappings")
PARTIAL_COUNTERS = ("partial_mappings", "evaluated_partial_mappings")

# (ranking digest, |Et| digest, *SEARCH_COUNTERS) per generator and schema.
GOLDEN_SEARCH = {
    "depth-first/paper": (
        "7682ab3615a05a63aa8554c2793ea121b742753f0616b5e4c346f901a0d430ec",
        "ac4a8ee9a8e43cfb646b2b0d859c32b3c165e9bcda1d24ca88845bff49c65a65",
        7506,
        7506,
        1131,
        4607,
    ),
    "depth-first/contact": (
        "e8636f5aa5fdd157fadf01431bb1296c7d2d6770be59a0c84c5d0dd00690b324",
        "efd4e75dd598ad110f28b90efd30b1ef0939bd3bcb8fd83a60f4fd6969b356b5",
        10911,
        10911,
        527,
        8947,
    ),
    "depth-first/book": (
        "47bf1e097bb66642c258f4f8a570813e886e0ffccf7947135f18cd633c73ab60",
        "688799bb3203e3b612a7682bcfe5dcb52e6fc6ea74ce249cceb6d764247a5b7a",
        284,
        284,
        26,
        150,
    ),
    "best-first/paper": (
        "7682ab3615a05a63aa8554c2793ea121b742753f0616b5e4c346f901a0d430ec",
        "ac4a8ee9a8e43cfb646b2b0d859c32b3c165e9bcda1d24ca88845bff49c65a65",
        7506,
        7506,
        1131,
        4607,
    ),
    "best-first/contact": (
        "e8636f5aa5fdd157fadf01431bb1296c7d2d6770be59a0c84c5d0dd00690b324",
        "efd4e75dd598ad110f28b90efd30b1ef0939bd3bcb8fd83a60f4fd6969b356b5",
        10911,
        10911,
        527,
        8947,
    ),
    "best-first/book": (
        "47bf1e097bb66642c258f4f8a570813e886e0ffccf7947135f18cd633c73ab60",
        "688799bb3203e3b612a7682bcfe5dcb52e6fc6ea74ce249cceb6d764247a5b7a",
        284,
        284,
        26,
        150,
    ),
    "beam/paper": (
        "7c85f6d8ac36839daa149b076aaa4d8c10873dd0b1359817ff46077136a0b6c1",
        "25f812c97a845899ea0a783017b75f4d9eb70b0cd2c9251a1368bae37f916e7a",
        6051,
        6051,
        580,
        2005,
    ),
    "beam/contact": (
        "a93514c53639b2bcdd4763ef3fd016699a5e92d2101128ebea6cde666695f1d7",
        "f149388ad878e5595552412f21b8b05c984efeb17380720de42cffacf471c26a",
        6460,
        6460,
        325,
        1424,
    ),
    "beam/book": (
        "9e7c47b778809e30d8cb77ebd80460eeccb07d1e6a2ec65a1da0699438304a24",
        "910a63d0f2eb6f8cb19af529c31d7061f6a3e7ca81e066f45150a2452ce39744",
        284,
        284,
        26,
        142,
    ),
}

# (partial-mapping digest, *PARTIAL_COUNTERS) per schema, summed over every
# cluster of the same pipeline (useful or not).
GOLDEN_PARTIAL = {
    "paper": (
        "a9e6c4871895241caf61da5fe2ca9fc583ffb1c40b29b7bd679a2487d769fb69",
        10964,
        10077,
    ),
    "contact": (
        "4b10a310ee279313174787ebe67f56009bf5739a55fccd7cf50c63f611d06a4b",
        24491,
        23954,
    ),
    "book": (
        "a3e6b6579e5a265140d32dcab86a94f7c037522be9926fe00a16d4d13b97467e",
        514,
        446,
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _pipeline(repository, generator=None) -> Bellflower:
    return Bellflower(
        repository,
        generator=generator,
        clusterer=clustering_variant("medium").make_clusterer(),
        element_threshold=0.45,
        delta=0.55,
    )


def observe_search(repository, generator_name: str, schema_name: str) -> tuple:
    result = _pipeline(repository, GENERATORS[generator_name]()).match(SCHEMAS[schema_name]())
    edge_counts = [mapping.target_edge_count for mapping in result.mappings]
    return (
        ranking_digest(result),
        _digest(edge_counts),
        *(result.counters.get(name) for name in SEARCH_COUNTERS),
    )


def observe_partial(repository, schema_name: str) -> tuple:
    system = _pipeline(repository)
    schema = SCHEMAS[schema_name]()
    candidates = system.element_matching(schema)
    generator = PartialMappingGenerator()
    records = []
    totals = dict.fromkeys(PARTIAL_COUNTERS, 0)
    for cluster in system.cluster_candidates(candidates).clusters:
        problem = MappingProblem(
            personal_schema=schema,
            candidates=cluster.restricted_candidates(candidates),
            oracle=system.oracle,
            objective=system.objective,
            delta=system.delta,
            cluster_id=cluster.cluster_id,
        )
        partials, result = generator.generate(problem)
        for name in totals:
            totals[name] += result.counters.get(name)
        records.append([(p.score.hex(), p.target_edge_count, p.signature()) for p in partials])
    return (_digest(records), *totals.values())


@pytest.fixture(scope="module")
def default_repository():
    return RepositoryGenerator(RepositoryProfile()).generate()


@pytest.mark.parametrize("generator_name", sorted(GENERATORS))
@pytest.mark.parametrize("schema_name", sorted(SCHEMAS))
def test_search_rankings_and_counters_are_pinned(default_repository, generator_name, schema_name):
    observed = observe_search(default_repository, generator_name, schema_name)
    assert observed == GOLDEN_SEARCH[f"{generator_name}/{schema_name}"]


@pytest.mark.parametrize("schema_name", sorted(SCHEMAS))
def test_partial_mappings_and_counters_are_pinned(default_repository, schema_name):
    assert observe_partial(default_repository, schema_name) == GOLDEN_PARTIAL[schema_name]
