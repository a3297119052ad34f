"""Spans recorded from outside the program, and the profiler pass.

The traced run wraps the public entry points of each layer *on the live
instances* the benchmark built (never on classes, never on anything pickled
to a worker), so the program under test is unchanged.  A wrapper records one
:class:`Span` per call: layer name, request id, start, end, and the time its
child spans covered, from which a layer's self time follows.  Spans stay in
memory until the run ends.

The inner search loop is far too hot for timers, so generation is split by a
separate ``cProfile`` pass instead: self time per function is mapped to a
layer through :data:`PROFILE_LAYERS`, a static table from module path to
layer.  Self time of built-ins and of code outside ``src/repro`` is charged to
the ``src/repro`` function that called it.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("name", "request", "start", "end", "child", "parent")

    def __init__(self, name: str, request, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.request = request
        self.start = start
        self.end = start
        self.child = 0.0
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """In-memory span recorder with per-instance method wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    # -- request ids ----------------------------------------------------------

    def begin_request(self, request) -> None:
        """Every span this thread records from now on belongs to ``request``."""
        self._local.request = request

    def record(self, name: str, request, start: float, end: float) -> None:
        """A span measured by the caller (the client side of a socket round trip)."""
        span = Span(name, request, start, None)
        span.end = end
        self.spans.append(span)

    # -- wrappers --------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        request_of: Optional[Callable[..., object]] = None,
    ) -> None:
        """Shadow ``owner.attribute`` with a span-recording wrapper.

        ``request_of(*args)`` names the request when the wrapped call is where
        a request enters a thread (the server's dispatcher).
        """
        original = getattr(owner, attribute)
        local = self._local
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if request_of is not None:
                local.request = request_of(*args)
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = Span(name, getattr(local, "request", None), clock(), parent)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)

        self._installed.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, traced)

    def unwrap_all(self) -> None:
        """Remove every wrapper; the instances behave exactly as before :meth:`wrap`."""
        for owner, attribute, shadowed in reversed(self._installed):
            if shadowed is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, shadowed)
        self._installed.clear()


# -- span arithmetic -------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


# -- profiler pass ---------------------------------------------------------------

#: Module path (relative to ``src``) -> layer.  The first matching prefix wins,
#: so single modules that belong to another layer than their package come first.
PROFILE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro/kernels/strings.py", "matchers"),
    ("repro/kernels/objective.py", "objective"),
    ("repro/utils/executor.py", "utils.executor"),
    ("repro/api/", "api"),
    ("repro/service/", "service"),
    ("repro/matchers/", "matchers"),
    ("repro/clustering/", "clustering"),
    ("repro/mapping/", "mapping"),
    ("repro/objective/", "objective"),
    ("repro/labeling/", "labeling"),
    ("repro/shard/", "shard"),
    ("repro/storage/", "storage"),
    ("repro/schema/", "schema"),
    ("repro/system/", "system"),
    ("repro/resilience/", "resilience"),
    ("repro/utils/", "utils"),
)

#: A ``src/repro`` module with at least this share of self time must have a layer.
UNMAPPED_LIMIT = 0.01


def layer_of_module(module: str) -> Optional[str]:
    for prefix, layer in PROFILE_LAYERS:
        if module.startswith(prefix):
            return layer
    return None


class ProfileSplit:
    """Self time of one profiled pass, by ``src/repro`` module and by layer."""

    def __init__(self, by_module: Dict[str, float], external: float) -> None:
        self.by_module = by_module
        self.external = external
        self.total = sum(by_module.values()) + external

    def share(self, layer: str) -> float:
        if self.total <= 0:
            return 0.0
        return sum(
            seconds for module, seconds in self.by_module.items() if layer_of_module(module) == layer
        ) / self.total

    def unmapped(self) -> List[Tuple[str, float]]:
        """Hot modules the layer table does not know (each is a pass failure)."""
        if self.total <= 0:
            return []
        return sorted(
            (module, seconds / self.total)
            for module, seconds in self.by_module.items()
            if layer_of_module(module) is None and seconds / self.total >= UNMAPPED_LIMIT
        )


def split_profile(profile: cProfile.Profile, src_dir: Path) -> ProfileSplit:
    """Map a profile's self time onto ``src/repro`` modules.

    A function outside ``src/repro`` (a built-in, the standard library, numpy)
    has its self time charged to its callers in proportion to the time each
    caller spent in it; what no ``src/repro`` caller claims stays external.
    """
    prefix = str(src_dir.resolve()) + "/"

    def module_of(filename: str) -> Optional[str]:
        return filename[len(prefix):] if filename.startswith(prefix) else None

    by_module: Dict[str, float] = {}
    external = 0.0
    for (filename, _line, _name), (_cc, _nc, own, _cumulative, callers) in pstats.Stats(
        profile
    ).stats.items():
        module = module_of(filename)
        if module is not None:
            by_module[module] = by_module.get(module, 0.0) + own
            continue
        claimed = 0.0
        for (caller_file, _caller_line, _caller_name), caller_stats in callers.items():
            caller_module = module_of(caller_file)
            if caller_module is not None:
                by_module[caller_module] = by_module.get(caller_module, 0.0) + caller_stats[2]
                claimed += caller_stats[2]
        external += max(own - claimed, 0.0)
    return ProfileSplit(by_module, external)
