"""The unified best-first search core shared by all pruning mapping generators.

Historically ``astar``, ``beam`` and ``branch_and_bound`` each carried their
own copy of the expansion loop: candidate grouping, injectivity checks,
incremental ``|Et|`` maintenance, bound evaluation and threshold pruning were
re-implemented three times, and a search over one cluster could never learn
from mappings already found in another.  This module extracts the common
machinery once:

* :class:`TreeSearchContext` — one per (problem, repository tree): compiles
  the search plan (per-level candidates with their ancestor masks, per-level
  links to the earlier levels a node shares a personal edge with), precomputes
  the per-level remaining-best-similarity tables the admissible bound needs
  (the legacy generators rebuilt that dictionary on *every* expansion), keeps
  a running similarity sum so :meth:`ObjectiveFunction.fast_bound
  <repro.objective.base.ObjectiveFunction.fast_bound>` can evaluate the bound
  in O(1), and centralizes the prune/accept bookkeeping;
* :class:`TopKPool` — a thread-safe *shared incumbent*: the ``k`` best scores
  found so far across every cluster of one query.  When the caller only wants
  the top-``k`` mappings, any partial mapping whose optimistic bound falls
  below the pool's floor (the current ``k``-th best score) cannot enter the
  final ranking and is pruned — a good mapping found in one cluster raises
  the pruning floor for every other cluster searched in the same query;
* the three frontier policies — :class:`DepthFirstPolicy` (Branch-and-Bound),
  :class:`BestFirstPolicy` (A*) and :class:`BeamPolicy` (beam search) — which
  are now thin orderings over the shared expansion step.

Every state carries the edges of its partial mapping subtree as one immutable
int (a path-edge mask, see :mod:`repro.labeling.distance`): a child state ORs
``chosen ^ mask`` for each linked earlier level into the parent's mask, the
bound reads ``|Et|`` as ``mask.bit_count()`` and a leaf is scored with that
popcount, so backtracking undoes no edges, heap or beam entries copy no edge
set, and no personal edge or repository path is re-derived per state.

Exactness
---------
Cross-cluster pruning never changes the reported top-``k``: the bound is
admissible (every prefix of a mapping with score ``σ`` has bound ``>= σ``) and
the floor is always a *realized, per-signature-deduplicated* mapping score, so
a pruned branch satisfies ``bound < floor <= final k-th best distinct score``
— none of its completions could displace the final top-``k``, and ties at the
floor are never pruned (the cut is strict).  Because the final ranking is
re-sorted with the canonical deterministic key, the merged top-``k`` is
identical no matter how the floor rose over time, i.e. identical under serial,
thread-pool and process-pool execution.  This argument requires a *complete*
policy; incomplete ones (beam, budget-limited A*) opt out of incumbent
pruning via :meth:`SearchPolicy.supports_shared_pruning` — they keep δ-only
pruning plus plain top-``k`` truncation, staying deterministic.  Without
``top_k`` the pool is absent and the engine reproduces the legacy
``Δ >= δ``-complete semantics (and bit-identical results) exactly.

Counters are *not* part of the determinism contract in top-``k`` mode: how
many partial mappings the floor prunes depends on which cluster found a good
incumbent first, which is timing-dependent under concurrent executors.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import MappingError
from repro.matchers.selection import MappingElement
from repro.mapping.base import GenerationResult
from repro.mapping.model import MappingProblem
from repro.mapping.search_space import grouped_search_space
from repro.mapping.support import candidates_by_tree

_NEGATIVE_INFINITY = float("-inf")


class TopKPool:
    """Thread-safe pool of the ``k`` best mapping scores seen so far.

    One pool instance is shared by every per-cluster search of a query; the
    executors may run those searches on many threads (or, via pickling, copy
    the pool per worker process — see ``__getstate__``).  The pool only stores
    scores, never mappings: it exists to *raise the pruning floor*, while the
    mappings themselves flow through the normal per-cluster results and are
    merged deterministically afterwards.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise MappingError(f"top-k pool needs k >= 1, got {k}")
        self.k = k
        # The k best (signature -> score) entries seen so far.  Keying by the
        # mapping signature dedups the same mapping discovered in several
        # overlapping clusters: counting it twice would inflate the floor past
        # the true k-th best *distinct* score and wrongly prune rank k.
        self._members: Dict[object, float] = {}
        self._floor = _NEGATIVE_INFINITY
        self._anonymous = itertools.count()
        self._lock = threading.Lock()

    def offer(self, score: float, signature: Optional[object] = None) -> None:
        """Record a realized mapping score (cheap; called once per mapping).

        ``signature`` identifies the mapping for cross-cluster deduplication;
        offers without one are treated as distinct mappings.
        """
        with self._lock:
            if signature is None:
                signature = ("__anonymous__", next(self._anonymous))
            elif signature in self._members:
                return
            if len(self._members) < self.k:
                self._members[signature] = score
                if len(self._members) == self.k:
                    self._floor = min(self._members.values())
            elif score > self._floor:
                evicted = min(self._members.items(), key=lambda item: item[1])[0]
                del self._members[evicted]
                self._members[signature] = score
                self._floor = min(self._members.values())

    def floor(self) -> float:
        """The current ``k``-th best score, or ``-inf`` while fewer than ``k`` exist.

        Monotonically non-decreasing over a query's lifetime, which is what
        makes pruning against it sound at any point in time.
        """
        with self._lock:
            return self._floor

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    # -- pickling (process executors) -----------------------------------------
    # A pickled pool is a *snapshot*: the worker process gets a private copy
    # holding the scores known at submission time, so cross-cluster sharing
    # degrades to per-worker sharing under a process executor.  Locks do not
    # pickle, hence the explicit state hooks.

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TopKPool(k={self.k}, floor={self.floor():.3f})"


class TranslatingTopKPool:
    """A :class:`TopKPool` view that rewrites signatures before offering them.

    Shard fan-out shares one incumbent pool across *services* whose searches
    run in different repository coordinate spaces: every shard numbers its own
    trees and global node ids from zero, so the signatures realized inside one
    shard would collide with — and wrongly deduplicate against — signatures
    from every other shard.  Wrapping the shared pool with a per-shard
    ``translate`` callable (shard-local signature → merged-repository
    signature) keeps the pool's deduplication keyed by the *merged* mapping
    identity, which is the space the final ranking is deduplicated in.

    The view is intentionally minimal: it forwards ``floor``/``__len__`` and
    only intercepts ``offer``.  It satisfies the same exactness argument as a
    bare pool (the floor is still a realized, distinct-by-merged-signature
    mapping score), so complete policies may prune against it freely.  It
    pickles like the pool it wraps (``translate`` must be picklable for
    process executors), degrading to a per-worker snapshot the same way.
    """

    __slots__ = ("pool", "translate")

    def __init__(self, pool: TopKPool, translate) -> None:
        self.pool = pool
        self.translate = translate

    @property
    def k(self) -> int:
        return self.pool.k

    def offer(self, score: float, signature: Optional[object] = None) -> None:
        self.pool.offer(score, None if signature is None else self.translate(signature))

    def floor(self) -> float:
        return self.pool.floor()

    def __len__(self) -> int:
        return len(self.pool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TranslatingTopKPool({self.pool!r})"


class TreeSearchContext:
    """Shared expansion machinery and compiled search plan for one (problem, tree) search.

    Compiles, once per tree:

    * ``levels[l]`` — the candidates of personal node ``order[l]``, already
      similarity-ordered, as ``(element, global id, ancestor mask,
      similarity)``.  The ancestor mask is the candidate's root-path edge set
      (:meth:`TreeDistanceOracle.mask
      <repro.labeling.distance.TreeDistanceOracle.mask>`), looked up once here
      rather than once per path through the repository oracle;
    * ``links[l]`` — the earlier levels whose personal nodes share a personal
      edge with ``order[l]``.  Choosing a candidate with mask ``m`` at level
      ``l`` adds the paths to those levels' chosen nodes, so the child's
      path-edge mask is ``parent_mask | (chosen[n] ^ m)`` over ``n`` in
      ``links[l]``, where ``chosen[n]`` is the mask chosen at level ``n``;
    * per-level remaining-similarity totals for the O(1)
      :meth:`~repro.objective.base.ObjectiveFunction.fast_bound` path.  The
      totals are summed left-to-right over the same node order the legacy
      generators used, so the fast path is bit-identical to the generic one
      for the bundled objectives;
    * lazily (only for objectives without a fast bound), the per-level
      remaining-best-similarity maps — :meth:`remaining_map` of level ``l``
      is what the generic :meth:`~repro.objective.base.ObjectiveFunction.bound`
      expects for a partial assignment covering ``order[:l]``.

    A leaf's ``|Et|`` is the popcount of the mask the search carries to it
    (:meth:`accept`); :meth:`MappingProblem.evaluate
    <repro.mapping.model.MappingProblem.evaluate>` stays the independent
    recomputation the tests compare against.
    """

    __slots__ = (
        "problem",
        "tree_id",
        "order",
        "levels",
        "links",
        "pool",
        "delta",
        "deadline",
        "best_similarity",
        "remaining_totals",
        "_remaining_maps",
        "_bound_table",
    )

    def __init__(
        self,
        problem: MappingProblem,
        tree_id: int,
        order: List[int],
        groups: Dict[int, List[MappingElement]],
        pool: Optional[TopKPool] = None,
    ) -> None:
        self.problem = problem
        self.tree_id = tree_id
        self.order = order
        self.delta = problem.delta
        self.pool = pool
        self.deadline = problem.deadline
        oracle = problem.oracle.oracle(tree_id)
        self.levels = [
            [
                (element, element.ref.global_id, oracle.mask(element.ref.node_id), element.similarity)
                for element in groups[node_id]
            ]
            for node_id in order
        ]
        schema = problem.personal_schema
        level_of = {node_id: level for level, node_id in enumerate(order)}
        links: List[Tuple[int, ...]] = []
        for level, node_id in enumerate(order):
            neighbours = list(schema.children_ids(node_id))
            parent = schema.parent_id(node_id)
            if parent is not None:
                neighbours.append(parent)
            links.append(tuple(sorted(level_of[n] for n in neighbours if level_of[n] < level)))
        self.links = links
        self.best_similarity = {
            node_id: max(element.similarity for element in elements)
            for node_id, elements in groups.items()
        }
        self.remaining_totals = [
            sum(self.best_similarity[node_id] for node_id in order[level:])
            for level in range(len(order) + 1)
        ]
        # The per-level maps are only needed by the generic bound() fallback
        # (objectives without fast_bound); building the O(levels²) entries
        # eagerly would be dead weight on every default-configuration search,
        # so they materialize on first use.
        self._remaining_maps: Optional[List[Dict[int, float]]] = None
        # Packed fast_bound table (repro.kernels.objective); None when the
        # objective declines, in which case fast_bound/bound run per call.
        self._bound_table = problem.objective.bound_table(problem.personal_schema)

    def remaining_map(self, level: int) -> Dict[int, float]:
        """Best remaining per-node similarities for ``order[level:]`` (lazy)."""
        if self._remaining_maps is None:
            self._remaining_maps = [
                {node_id: self.best_similarity[node_id] for node_id in self.order[lvl:]}
                for lvl in range(len(self.order) + 1)
            ]
        return self._remaining_maps[level]

    # -- bound evaluation -----------------------------------------------------

    def bound(
        self,
        assignment: Dict[int, MappingElement],
        assigned_similarity: float,
        level: int,
        edge_count: int,
        result: GenerationResult,
    ) -> float:
        """Admissible bound for a partial assignment covering ``order[:level]``."""
        result.counters.increment("bound_evaluations")
        table = self._bound_table
        if table is not None:
            # Same operands, same operation order as fast_bound — the packed
            # table only hoists the per-edge-count path term (tests/kernels
            # pins bit-identity).
            return table.bound(
                assigned_similarity + self.remaining_totals[level], edge_count
            )
        objective = self.problem.objective
        fast = objective.fast_bound(
            self.problem.personal_schema,
            assigned_similarity,
            self.remaining_totals[level],
            edge_count,
        )
        if fast is not None:
            return fast
        return objective.bound(
            self.problem.personal_schema, assignment, self.remaining_map(level), edge_count
        )

    def expired(self, result: GenerationResult) -> bool:
        """Poll the problem's deadline; mark the result truncated on expiry.

        ``set`` (not ``increment``) keeps the flag idempotent under the many
        checks one expiring search performs; merged per-cluster counters sum
        to "how many cluster searches were cut short", and any value > 0
        marks the overall result partial.
        """
        if self.deadline is not None and self.deadline.expired():
            result.counters.set("deadline_expired", 1)
            return True
        return False

    def prune_floor(self) -> float:
        """The current pruning floor: ``δ``, raised by the shared incumbent pool."""
        if self.pool is None:
            return self.delta
        floor = self.pool.floor()
        return floor if floor > self.delta else self.delta

    def admit(self, bound: float, result: GenerationResult) -> bool:
        """Decide whether a partial mapping with this bound is worth expanding.

        The cut is strict (``bound < floor`` prunes) so mappings tied with the
        incumbent floor are never lost.
        """
        if bound < self.delta:
            result.counters.increment("pruned_partial_mappings")
            return False
        if self.pool is not None and bound < self.pool.floor():
            result.counters.increment("pruned_partial_mappings")
            result.counters.increment("incumbent_pruned_partial_mappings")
            return False
        return True

    # -- completion -----------------------------------------------------------

    def accept(
        self, assignment: Dict[int, MappingElement], path_edges: int, result: GenerationResult
    ) -> None:
        """Score a complete assignment; keep it when it clears ``δ``.

        ``path_edges`` is the leaf's path-edge mask, so ``|Et|`` is its
        popcount; only a mapping that clears ``δ`` is materialized.
        """
        problem = self.problem
        evaluation = problem.objective.evaluate(
            problem.personal_schema, assignment, path_edges.bit_count()
        )
        result.counters.increment("evaluated_mappings")
        if evaluation.score >= self.delta:
            mapping = problem.mapping(assignment, evaluation, self.tree_id)
            result.mappings.append(mapping)
            if self.pool is not None:
                self.pool.offer(mapping.score, mapping.signature())


class SearchPolicy:
    """A frontier discipline over the shared expansion machinery."""

    name: str = "policy"

    def supports_shared_pruning(self) -> bool:
        """Whether incumbent pruning cannot change this policy's result set.

        The exactness argument (see the module docstring) only holds for
        *complete* policies: pruning a sub-top-k branch from a complete
        search never changes which top-k mappings are found.  In an
        incomplete search — beam (the width cut drops different states when
        the floor frees beam slots) or a budget-limited A* (the floor changes
        which states fit into the expansion budget) — the floor's arrival
        *time* would leak into the result set, breaking determinism under
        concurrent executors.  Such policies opt out: the engine then runs
        them without a pool (δ-only pruning, plain top-k truncation).
        """
        return True

    def search_tree(self, context: TreeSearchContext, result: GenerationResult) -> None:
        raise NotImplementedError


class DepthFirstPolicy(SearchPolicy):
    """Depth-first Branch-and-Bound: mutable assignment with undo, LIFO order.

    The path-edge mask travels down the recursion as an argument and each
    level's chosen ancestor mask is overwritten in place, so only the
    assignment and the used-node set need undoing.

    With ``use_bounding=False`` the policy degenerates into the depth-first
    exhaustive enumeration (no bound evaluations, no pruning), which the
    ablation benchmark uses to quantify what the bounding function saves.
    """

    name = "depth-first"

    def __init__(self, use_bounding: bool = True) -> None:
        self.use_bounding = use_bounding

    def search_tree(self, context: TreeSearchContext, result: GenerationResult) -> None:
        injective = context.problem.require_injective
        use_bounding = self.use_bounding
        order = context.order
        levels = context.levels
        links = context.links
        depth = len(order)
        deadline = context.deadline
        increment = result.counters.increment
        bound_of = context.bound
        admit = context.admit
        accept = context.accept
        assignment: Dict[int, MappingElement] = {}
        used_globals: set = set()
        chosen = [0] * depth

        def recurse(level: int, assigned_similarity: float, path_edges: int) -> None:
            node_id = order[level]
            neighbours = links[level]
            child_level = level + 1
            for element, global_id, mask, similarity in levels[level]:
                # Cooperative deadline: stop expanding, keep what we have.
                # Unwinding mid-loop is safe — every accepted mapping so far
                # is fully evaluated, the result is just missing the rest.
                if deadline is not None and context.expired(result):
                    return
                if injective and global_id in used_globals:
                    continue
                child_edges = path_edges
                for neighbour in neighbours:
                    child_edges |= chosen[neighbour] ^ mask
                chosen[level] = mask
                assignment[node_id] = element
                used_globals.add(global_id)
                child_similarity = assigned_similarity + similarity
                increment("partial_mappings")

                if not use_bounding or admit(
                    bound_of(assignment, child_similarity, child_level, child_edges.bit_count(), result),
                    result,
                ):
                    if child_level == depth:
                        accept(assignment, child_edges, result)
                    else:
                        recurse(child_level, child_similarity, child_edges)

                del assignment[node_id]
                used_globals.discard(global_id)

        recurse(0, 0.0, 0)


class BestFirstPolicy(SearchPolicy):
    """A*: a priority queue ordered by the optimistic bound, best state first.

    Stops as soon as the best frontier bound falls below the pruning floor —
    with a shared incumbent pool the floor may have been raised by *another*
    cluster, turning the stop condition into cross-cluster pruning.
    """

    name = "best-first"

    def __init__(self, max_expansions: Optional[int] = None) -> None:
        self.max_expansions = max_expansions

    def supports_shared_pruning(self) -> bool:
        # With an expansion budget the search is incomplete: the incumbent
        # floor would decide which states fit into the budget, making the
        # result set timing-dependent under concurrent executors.
        return self.max_expansions is None

    def search_tree(self, context: TreeSearchContext, result: GenerationResult) -> None:
        injective = context.problem.require_injective
        order = context.order
        levels = context.levels
        links = context.links
        tie_breaker = itertools.count()
        # Heap entries: (-bound, tie, level, assignment, similarity sum, used
        # ids, path edge mask, ancestor masks chosen per level).
        heap: List[
            Tuple[float, int, int, Dict[int, MappingElement], float, FrozenSet[int], int, Tuple[int, ...]]
        ] = []
        heapq.heappush(heap, (-1.0, next(tie_breaker), 0, {}, 0.0, frozenset(), 0, ()))
        expansions = 0

        while heap:
            # Cooperative deadline: the frontier is abandoned, every mapping
            # accepted so far stays — an anytime cut of the best-first order.
            if context.expired(result):
                break
            (
                negative_bound,
                _,
                level,
                assignment,
                assigned_similarity,
                used_globals,
                path_edges,
                chosen,
            ) = heapq.heappop(heap)
            if -negative_bound < context.prune_floor():
                # The heap is bound-ordered: everything left is bounded below
                # the floor as well, so no remaining state can contribute.
                break
            if level == len(order):
                context.accept(assignment, path_edges, result)
                continue
            if self.max_expansions is not None and expansions >= self.max_expansions:
                result.counters.set("expansion_limit_reached", 1)
                break
            expansions += 1
            result.counters.increment("expansions")

            node_id = order[level]
            neighbours = links[level]
            for element, global_id, mask, similarity in levels[level]:
                if injective and global_id in used_globals:
                    continue
                new_edges = path_edges
                for neighbour in neighbours:
                    new_edges |= chosen[neighbour] ^ mask
                new_assignment = dict(assignment)
                new_assignment[node_id] = element
                child_similarity = assigned_similarity + similarity
                result.counters.increment("partial_mappings")
                bound = context.bound(
                    new_assignment, child_similarity, level + 1, new_edges.bit_count(), result
                )
                if not context.admit(bound, result):
                    continue
                heapq.heappush(
                    heap,
                    (
                        -bound,
                        next(tie_breaker),
                        level + 1,
                        new_assignment,
                        child_similarity,
                        used_globals | {global_id},
                        new_edges,
                        (*chosen, mask),
                    ),
                )


@dataclass(frozen=True)
class _BeamState:
    """One partial mapping kept in the beam (assignment stored in level order)."""

    assignment: Tuple[Tuple[int, MappingElement], ...]
    assigned_similarity: float
    used_globals: FrozenSet[int]
    path_edges: int
    bound: float
    # Ancestor mask of the node chosen at each level (see TreeSearchContext).
    chosen: Tuple[int, ...]

    def selection_key(self) -> Tuple[float, Tuple[int, ...]]:
        """Deterministic beam-selection key: bound, then mapped ids by personal node."""
        return (
            -self.bound,
            tuple(element.ref.global_id for _, element in sorted(self.assignment)),
        )


class BeamPolicy(SearchPolicy):
    """Level-synchronous beam search keeping the ``beam_width`` best states."""

    name = "beam"

    def __init__(self, beam_width: int) -> None:
        if beam_width < 1:
            raise MappingError(f"beam width must be positive, got {beam_width}")
        self.beam_width = beam_width

    def supports_shared_pruning(self) -> bool:
        # Beam search is incomplete: a state pruned by the incumbent floor
        # frees a beam slot for a state the width cut would otherwise drop,
        # so the surviving set would depend on when another cluster raised
        # the floor.
        return False

    def search_tree(self, context: TreeSearchContext, result: GenerationResult) -> None:
        injective = context.problem.require_injective
        beam: List[_BeamState] = [
            _BeamState(
                assignment=(),
                assigned_similarity=0.0,
                used_globals=frozenset(),
                path_edges=0,
                bound=1.0,
                chosen=(),
            )
        ]

        for level, node_id in enumerate(context.order):
            neighbours = context.links[level]
            next_states: List[_BeamState] = []
            for state in beam:
                # Cooperative deadline: abandoning a level mid-way can only
                # drop states, and beam results only materialize at the final
                # level, so an expired beam search returns what prior trees
                # of the same problem already accepted.
                if context.expired(result):
                    return
                assignment = dict(state.assignment)
                chosen = state.chosen
                for element, global_id, mask, similarity in context.levels[level]:
                    if injective and global_id in state.used_globals:
                        continue
                    new_edges = state.path_edges
                    for neighbour in neighbours:
                        new_edges |= chosen[neighbour] ^ mask
                    child_similarity = state.assigned_similarity + similarity
                    new_assignment = assignment | {node_id: element}
                    result.counters.increment("partial_mappings")
                    bound = context.bound(
                        new_assignment, child_similarity, level + 1, new_edges.bit_count(), result
                    )
                    if not context.admit(bound, result):
                        continue
                    next_states.append(
                        _BeamState(
                            assignment=(*state.assignment, (node_id, element)),
                            assigned_similarity=child_similarity,
                            used_globals=state.used_globals | {global_id},
                            path_edges=new_edges,
                            bound=bound,
                            chosen=(*chosen, mask),
                        )
                    )
            next_states.sort(key=_BeamState.selection_key)
            dropped = max(0, len(next_states) - self.beam_width)
            if dropped:
                result.counters.increment("beam_dropped_states", dropped)
            beam = next_states[: self.beam_width]
            if not beam:
                return

        for state in beam:
            context.accept(dict(state.assignment), state.path_edges, result)


def run_search(problem: MappingProblem, policy: SearchPolicy) -> GenerationResult:
    """Search every candidate-complete repository tree of ``problem``.

    The per-tree searches run in ascending tree-id order (deterministic), each
    over a fresh :class:`TreeSearchContext`; the shared incumbent pool — when
    the problem carries one — persists across trees *and* across concurrently
    searched sibling problems.  In top-``k`` mode the returned result is
    truncated to the problem's ``top_k`` best mappings (sorted with the
    canonical ranking key), since no global ranking can ever need more than
    ``k`` mappings from one cluster.
    """
    result = GenerationResult()
    started = time.perf_counter()
    pool: Optional[TopKPool] = None
    if problem.top_k is not None and policy.supports_shared_pruning():
        # Without a caller-provided pool the incumbent floor is still shared
        # across this problem's own trees (a private pool).  Incomplete
        # policies run without a pool entirely — see
        # SearchPolicy.supports_shared_pruning — and get plain top-k
        # truncation below.
        pool = problem.shared_pool or TopKPool(problem.top_k)
    order = problem.assignment_order()
    deadline = problem.deadline
    for tree_id, groups in sorted(candidates_by_tree(problem).items()):
        if deadline is not None and deadline.expired():
            # Anytime cut between trees: keep what earlier trees produced.
            result.counters.set("deadline_expired", 1)
            break
        # The enumerable space of the trees actually searched — lets reports
        # relate partial_mappings to what a pruning-free search would face.
        result.counters.increment("tree_search_space", grouped_search_space(groups))
        policy.search_tree(TreeSearchContext(problem, tree_id, order, groups, pool), result)
    result.elapsed_seconds = time.perf_counter() - started
    result.sort()
    if problem.top_k is not None:
        del result.mappings[problem.top_k :]
    return result
