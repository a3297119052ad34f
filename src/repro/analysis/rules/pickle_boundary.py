"""RPA003 — the process-pool pickle boundary stays audited.

:class:`~repro.utils.executor.ProcessPoolTaskExecutor` ships callables and
task payloads to worker processes by pickling.  The frozen views reduce to a
generation reopen precisely because "it pickled, therefore it worked" is
false: a class that crosses the boundary with default pickling can silently
drag megabytes of repository state (or unpicklable locks/pools) into every
worker.  The audit has two mechanical halves:

* every class that customizes pickling (``__reduce__``/``__getstate__``/…)
  must appear in :data:`PICKLE_BOUNDARY_ALLOWLIST` with a recorded reason —
  a new pickle hook is a boundary-crossing design decision, not a detail;
* the allowlist must stay live: entries whose class disappeared, or whose
  class no longer defines the hooks the entry claims, are findings.

The rule also rejects lambdas and closures handed to a ``TaskExecutor.map``
call — pickle cannot serialize them, so they break the moment the executor is
a process pool (the chaos wrapper's in-process closure is the one documented
exception and carries an inline suppression).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.core import Checker, FileContext, Finding

#: Methods that customize pickling.
PICKLE_HOOKS = (
    "__reduce__",
    "__reduce_ex__",
    "__getstate__",
    "__setstate__",
    "__getnewargs__",
    "__getnewargs_ex__",
)

#: The audited boundary.  ``hooks=True`` entries customize pickling (and must
#: keep doing so); ``hooks=False`` entries are task payloads audited as safe
#: under *default* pickling (they must not silently grow hooks).  ``why``
#: records the audit rationale — it is documentation with teeth.
PICKLE_BOUNDARY_ALLOWLIST: Dict[str, Dict[str, object]] = {
    "repro.schema.repository.SchemaRepository": {
        "hooks": True,
        "why": "drops derived caches (name index, oracle rows) so chunk pickles stay lean",
    },
    "repro.mapping.engine.TopKPool": {
        "hooks": True,
        "why": "strips the lock; workers get a per-process incumbent copy (prune-only, exact)",
    },
    "repro.labeling.distance.RepositoryDistanceOracle": {
        "hooks": True,
        "why": "strips the build lock and built per-tree rows; workers rebuild only the trees they touch",
    },
    "repro.matchers.index.LRUMemo": {
        "hooks": True,
        "why": "drops the lock and memo contents; workers rebuild their own bounded memo",
    },
    "repro.matchers.index.RepositoryNameIndex": {
        "hooks": True,
        "why": "drops lazily-derived postings so repository pickles do not double-ship them",
    },
    "repro.resilience.deadline.Deadline": {
        "hooks": True,
        "why": "re-anchors remaining budget on the receiving process's own monotonic clock",
    },
    "repro.utils.counters.ThreadSafeCounterSet": {
        "hooks": True,
        "why": "locks do not pickle; a worker copy only needs the counts",
    },
    "repro.mapping.model.MappingProblem": {
        "hooks": False,
        "why": "the per-cluster task payload; default pickling is the chunk-level dedup contract",
    },
    "repro.storage.frozen.FrozenRepository": {
        "hooks": True,
        "why": "mmap views cannot pickle; reduces to a reopen of the opened file generation, shared per worker process",
    },
    "repro.storage.frozen.FrozenNameIndex": {
        "hooks": True,
        "why": "immutable mmap-backed index; reduces to (generation, position) so workers attach, never copy",
    },
    "repro.storage.frozen.FrozenRepositoryDistanceOracle": {
        "hooks": True,
        "why": "reopens the opened file generation while pristine, else copies sans mmap views",
    },
    "repro.storage.frozen.FrozenPartition": {
        "hooks": True,
        "why": "reduces to (generation, reclustering) while segment-backed; materializes before plain pickling",
    },
}

_HOOK_HINT = (
    "add the class to PICKLE_BOUNDARY_ALLOWLIST in repro/analysis/rules/pickle_boundary.py "
    "with the audit rationale, or remove the hook"
)


class PickleBoundaryChecker(Checker):
    rule_id = "RPA003"
    title = "process-pool pickle boundary stays audited"
    contract = (
        "Classes crossing the ProcessPoolTaskExecutor/ChaosExecutor boundary "
        "either define audited pickle hooks or appear in the audited "
        "default-pickle allowlist; lambdas/closures must not be handed to "
        "executor map calls."
    )
    include = ("src/repro/**",)
    exclude = ("src/repro/analysis/**",)

    def __init__(self, allowlist: Dict[str, Dict[str, object]] = PICKLE_BOUNDARY_ALLOWLIST) -> None:
        self.allowlist = allowlist
        #: dotted class path -> (rel, line, hook names found)
        self.seen_classes: Dict[str, Tuple[str, int, Set[str]]] = {}

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        module = ctx.module_name()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                hooks = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in PICKLE_HOOKS
                }
                dotted = f"{module}.{node.name}"
                self.seen_classes[dotted] = (ctx.rel, node.lineno, hooks)
                if hooks and dotted not in self.allowlist:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"class {node.name} customizes pickling ({', '.join(sorted(hooks))}) "
                            "but is not in the audited boundary allowlist",
                            _HOOK_HINT,
                        )
                    )
        findings.extend(self._check_executor_callables(ctx))
        return findings

    # -- lambdas/closures into executor map ------------------------------------

    def _check_executor_callables(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []

        class Scope(ast.NodeVisitor):
            def __init__(self, local_defs: Set[str]) -> None:
                self.local_defs = local_defs

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._visit_function(node)

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self._visit_function(node)

            def _visit_function(self, node: ast.AST) -> None:
                nested = {
                    item.name
                    for item in ast.walk(node)
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item is not node
                }
                Scope(nested).generic_visit(node)  # type: ignore[arg-type]

            def visit_Call(self, call: ast.Call) -> None:
                self.generic_visit(call)
                func = call.func
                if not (isinstance(func, ast.Attribute) and func.attr == "map" and call.args):
                    return
                receiver = ast.unparse(func.value)
                if "executor" not in receiver.lower() and not receiver.endswith(".inner"):
                    return
                fn_arg = call.args[0]
                if isinstance(fn_arg, ast.Lambda):
                    findings.append(
                        checker.finding(
                            ctx,
                            fn_arg,
                            f"lambda passed to `{receiver}.map` cannot cross the process-pool "
                            "pickle boundary",
                            "use a module-level function (functools.partial over one is fine)",
                        )
                    )
                elif isinstance(fn_arg, ast.Name) and fn_arg.id in self.local_defs:
                    findings.append(
                        checker.finding(
                            ctx,
                            fn_arg,
                            f"closure `{fn_arg.id}` passed to `{receiver}.map` cannot cross the "
                            "process-pool pickle boundary",
                            "use a module-level function (functools.partial over one is fine)",
                        )
                    )

        checker = self
        Scope(set()).visit(ctx.tree)
        return findings

    # -- allowlist liveness ----------------------------------------------------

    def finalize(self, project: object) -> Iterable[Finding]:
        findings: List[Finding] = []
        scanned_modules = {
            ctx.module_name() for ctx in getattr(project, "contexts", ())
        }
        for dotted, entry in sorted(self.allowlist.items()):
            seen = self.seen_classes.get(dotted)
            anchor_rel = "src/repro/analysis/rules/pickle_boundary.py"
            if seen is None:
                # Only call an entry stale when its module was actually in
                # scope — a scoped run (tests over fixture trees, --rules on a
                # subtree) cannot audit files it never parsed.
                if dotted.rsplit(".", 1)[0] not in scanned_modules:
                    continue
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=anchor_rel,
                        line=1,
                        col=1,
                        message=f"stale allowlist entry: class {dotted} no longer exists",
                        hint="remove the entry or fix the dotted path",
                    )
                )
                continue
            rel, lineno, hooks = seen
            if entry["hooks"] and not hooks:
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=rel,
                        line=lineno,
                        col=1,
                        message=(
                            f"{dotted} is allowlisted as defining pickle hooks but defines none"
                        ),
                        hint="restore the hook or re-audit the entry as hooks=False",
                    )
                )
            elif not entry["hooks"] and hooks:
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=rel,
                        line=lineno,
                        col=1,
                        message=(
                            f"{dotted} is audited for default pickling but now defines "
                            f"{', '.join(sorted(hooks))}"
                        ),
                        hint="re-audit the entry as hooks=True with the new rationale",
                    )
                )
        return findings
