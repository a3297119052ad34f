"""Shared helpers for mapping generators.

Every generator walks the same state space: personal nodes are assigned in a
fixed order, candidates must come from a single repository tree, and (by
default) two personal nodes may not map to the same repository node.  The
helpers here group candidates by repository tree and order them so that all
generators explore deterministically.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.matchers.selection import MappingElement
from repro.mapping.model import MappingProblem


def candidates_by_tree(problem: MappingProblem) -> Dict[int, Dict[int, List[MappingElement]]]:
    """Group the problem's candidates per repository tree and personal node.

    Only trees offering at least one candidate for *every* personal node are
    returned: by Definition 2 a complete mapping needs a mapping element per
    personal node, so other trees cannot produce mappings (they correspond to
    the paper's non-*useful* clusters).
    """
    per_tree: Dict[int, Dict[int, List[MappingElement]]] = {}
    for node_id, elements in problem.candidates:
        for element in elements:
            tree_groups = per_tree.setdefault(element.ref.tree_id, {})
            tree_groups.setdefault(node_id, []).append(element)

    personal_ids = list(problem.personal_schema.node_ids())
    complete: Dict[int, Dict[int, List[MappingElement]]] = {}
    for tree_id, groups in per_tree.items():
        if all(node_id in groups and groups[node_id] for node_id in personal_ids):
            # Candidates are explored best-similarity-first with a deterministic
            # tie break on the repository node id.
            complete[tree_id] = {
                node_id: sorted(elements, key=lambda e: (-e.similarity, e.ref.global_id))
                for node_id, elements in groups.items()
            }
    return complete


def incremental_path_edges(
    problem: MappingProblem,
    assignment: Mapping[int, MappingElement],
    new_node_id: int,
    new_element: MappingElement,
) -> int:
    """Repository edges added to ``|Et|`` by assigning ``new_element`` to ``new_node_id``.

    Considers every personal edge between the new node and an already-assigned
    neighbour; the union of the corresponding repository paths is returned as
    a bitmask (see :meth:`MappingProblem.path_edges`) so the caller can grow
    its running edge mask with ``|``.  The partial-mapping generator, whose
    assignment order skips nodes, uses this; the search engine links levels
    in its compiled plan instead (:class:`~repro.mapping.engine.TreeSearchContext`).
    """
    added = 0
    tree = problem.personal_schema
    neighbours = []
    parent = tree.parent_id(new_node_id)
    if parent is not None:
        neighbours.append(parent)
    neighbours.extend(tree.children_ids(new_node_id))
    for neighbour in neighbours:
        if neighbour in assignment:
            added |= problem.path_edges(assignment[neighbour].ref, new_element.ref)
    return added
