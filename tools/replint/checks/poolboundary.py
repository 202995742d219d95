"""RL007 pool-boundary: all process-fabric construction in one place.

The parallel fabric owns worker lifecycle (fork-time registry reset,
lazy respawn of dead workers, teardown): :class:`~repro.parallel.pool.
WorkerPool` builds its workers with ``multiprocessing``'s
``get_context(...).Process``.  A shared-memory segment is a
parent-owned OS resource that needs an exactly-once unlink and starts
``multiprocessing``'s resource tracker, so the fabric uses none.  A stray
``Process``, ``multiprocessing.Pool``, ``ProcessPoolExecutor`` or
``shared_memory.SharedMemory`` constructed elsewhere silently
re-introduces the per-sweep spawn cost the pool exists to amortize —
and double-counts metrics, because only :mod:`repro.parallel.worker`
resets the forked registry.  Everything outside ``repro/parallel/``
must go through :class:`~repro.parallel.pool.WorkerPool` /
:class:`~repro.parallel.executor.SweepExecutor`.

``ThreadPoolExecutor`` is deliberately not flagged: threads share the
parent's registry and environment, so none of the fork hazards apply.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from tools.replint.checks.forksafety import POOL_PACKAGES
from tools.replint.core import Check, FileContext, Finding

#: Constructors that create process-fabric resources.
_FABRIC_CONSTRUCTORS = {"Process", "Pool", "ProcessPoolExecutor", "SharedMemory"}


def _constructor_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class PoolBoundaryCheck(Check):
    id = "RL007"
    name = "pool-boundary"
    description = (
        "direct Process/Pool/ProcessPoolExecutor/SharedMemory construction "
        "outside repro/parallel/; use WorkerPool / SweepExecutor"
    )

    def extract(self, ctx: FileContext) -> List:
        sites: List = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _constructor_name(node)
            if name in _FABRIC_CONSTRUCTORS:
                sites.append(
                    [
                        node.lineno,
                        f"direct {name} construction outside repro/parallel/ "
                        "bypasses worker lifecycle and shared-memory "
                        "hygiene; go through WorkerPool/SweepExecutor",
                    ]
                )
        return sites

    def file_findings(self, relpath: str, facts) -> Iterable[Finding]:
        if any(pkg in relpath for pkg in POOL_PACKAGES):
            return
        for line, message in facts or ():
            yield self.finding(relpath, line, message)
