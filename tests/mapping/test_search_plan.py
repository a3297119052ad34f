"""The compiled search plan scores leaves exactly as the checked reference does.

The engine carries each state's path edges as a mask built from per-level
links and ancestor masks, and scores a leaf from that mask's popcount
(``TreeSearchContext.accept``).  ``MappingProblem.evaluate`` recomputes
``|Et|`` from the personal edges instead; these properties pin the two
against a third, naive computation — the union of
``SchemaTree.path_edge_ids`` over the personal edges — on random problems,
under every policy.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.labeling.distance import RepositoryDistanceOracle
from repro.mapping.astar import AStarGenerator
from repro.mapping.beam import BeamSearchGenerator
from repro.mapping.branch_and_bound import BranchAndBoundGenerator
from repro.mapping.exhaustive import ExhaustiveGenerator
from repro.mapping.model import MappingProblem
from repro.matchers.selection import MappingElement, MappingElementSets
from repro.objective.bellflower import BellflowerObjective
from repro.schema.node import SchemaNode
from repro.schema.repository import SchemaRepository
from repro.schema.tree import SchemaTree


def _random_tree(draw, name: str, min_size: int, max_size: int) -> SchemaTree:
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    tree = SchemaTree(name=name)
    tree.add_root(SchemaNode(name=f"{name}0"))
    for index in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=index - 1))
        tree.add_child(parent, SchemaNode(name=f"{name}{index}"))
    return tree


@st.composite
def random_problems(draw):
    """Random personal schema shapes over a two-tree repository."""
    repository = SchemaRepository("random")
    for tree_index in range(2):
        repository.add_tree(_random_tree(draw, f"t{tree_index}-", 3, 12))
    personal = _random_tree(draw, "p", 1, 5)
    candidates = MappingElementSets(list(personal.node_ids()))
    for node_id in personal.node_ids():
        refs = draw(
            st.lists(
                st.sampled_from([ref for ref, _ in repository.iter_nodes()]),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
        for ref in refs:
            similarity = draw(st.floats(min_value=0.1, max_value=1.0))
            candidates.add(MappingElement(node_id, ref, similarity))
    return MappingProblem(
        personal_schema=personal,
        candidates=candidates,
        oracle=RepositoryDistanceOracle(repository),
        objective=BellflowerObjective(alpha=draw(st.sampled_from([0.25, 0.5, 0.75]))),
        delta=draw(st.sampled_from([0.0, 0.3, 0.5, 0.7])),
    )


def _naive_edge_count(problem: MappingProblem, mapping) -> int:
    personal = problem.personal_schema
    tree = problem.oracle.repository.tree(mapping.tree_id)
    edges: set = set()
    for node_id in personal.node_ids():
        parent = personal.parent_id(node_id)
        if parent is not None:
            edges |= tree.path_edge_ids(
                mapping.assignment[parent].ref.node_id, mapping.assignment[node_id].ref.node_id
            )
    return len(edges)


GENERATORS = (
    BranchAndBoundGenerator(),
    AStarGenerator(),
    BeamSearchGenerator(beam_width=3),
)


@given(random_problems())
@settings(max_examples=50, deadline=None)
def test_every_policy_scores_leaves_like_the_naive_path_union(problem):
    for generator in GENERATORS:
        for mapping in generator.generate(problem).mappings:
            edge_count = _naive_edge_count(problem, mapping)
            evaluation = problem.objective.evaluate(
                problem.personal_schema, mapping.assignment, edge_count
            )
            assert mapping.target_edge_count == edge_count, generator.name
            assert mapping.score.hex() == evaluation.score.hex(), generator.name
            assert dict(mapping.components) == evaluation.components
            reference = problem.evaluate(mapping.assignment)
            assert (reference.score.hex(), reference.target_edge_count, reference.tree_id) == (
                mapping.score.hex(),
                mapping.target_edge_count,
                mapping.tree_id,
            )


@given(random_problems())
@settings(max_examples=30, deadline=None)
def test_complete_policies_reproduce_the_exhaustive_scores_bit_for_bit(problem):
    exhaustive = {
        mapping.signature(): mapping.score.hex()
        for mapping in ExhaustiveGenerator().generate(problem).mappings
    }
    for generator in GENERATORS[:2]:
        found = {m.signature(): m.score.hex() for m in generator.generate(problem).mappings}
        assert found == exhaustive, generator.name


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_level_order_running_sum_matches_name_similarity(similarities):
    """The search's running similarity sum equals Eq. 1's ``sum`` bit for bit.

    The engine adds similarities one level at a time, starting from ``0.0``;
    ``fast_bound`` relies on that sum equalling what ``bound`` and
    ``name_similarity`` compute with ``sum`` over an assignment built in the
    same level order.
    """
    personal = SchemaTree(name="p")
    personal.add_root(SchemaNode(name="p0"))
    for index in range(1, len(similarities)):
        personal.add_child(0, SchemaNode(name=f"p{index}"))
    repository = SchemaRepository("r")
    repository.add_tree(_chain(len(similarities)))
    # Level order: a permutation of the node ids, as assignment_order gives.
    order = list(reversed(range(len(similarities))))
    assignment = {}
    running = 0.0
    for node_id, similarity in zip(order, similarities):
        assignment[node_id] = MappingElement(node_id, repository.ref(0, node_id), similarity)
        running = running + similarity
    objective = BellflowerObjective()
    assert (running / len(similarities)).hex() == objective.name_similarity(personal, assignment).hex()


def _chain(size: int) -> SchemaTree:
    tree = SchemaTree(name="chain")
    tree.add_root(SchemaNode(name="c0"))
    for index in range(1, size):
        tree.add_child(index - 1, SchemaNode(name=f"c{index}"))
    return tree
