"""RL012 discarded-handle: fire-and-forget events must not allocate a handle.

``Simulator.schedule()``/``at()`` allocate an :class:`EventHandle` per
event so the caller can cancel it; ``post()``/``post_at()`` order the
event identically without one.  On the packet path that allocation was
one object per event (≈440 k per all-to-all run) for handles nobody
kept.  Inside ``repro/simulator/`` a ``schedule``/``at`` call on a
simulator whose result is dropped is therefore a finding, and so is
binding either method to an alias (``self._schedule = sim.schedule``),
which would hide every call through it from this check.

The receiver must be spelled ``sim`` (``sim.at``, ``self.sim.schedule``,
``network.sim.at``), which is how the simulator package names it
everywhere; that keeps numpy's ``ufunc.at`` out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from tools.replint.checks._util import dotted_name
from tools.replint.core import Check, FileContext, Finding

#: Package whose event scheduling is on the per-packet hot path.
SIMULATOR_PACKAGE = "repro/simulator/"

_HANDLE_METHODS = {"schedule": "post", "at": "post_at"}


def _sim_method(node: ast.AST) -> str:
    """``schedule``/``at`` when ``node`` is ``<...>.sim.<that>``, else ''."""
    if not isinstance(node, ast.Attribute) or node.attr not in _HANDLE_METHODS:
        return ""
    receiver = dotted_name(node.value)
    if receiver is None or receiver.rpartition(".")[2] != "sim":
        return ""
    return node.attr


class DiscardedHandleCheck(Check):
    id = "RL012"
    name = "discarded-handle"
    description = (
        "sim.schedule()/at() with the returned handle unused under "
        "repro/simulator/; use the handle-free post()/post_at()"
    )

    def extract(self, ctx: FileContext) -> List:
        called = set()
        sites: List = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                method = _sim_method(node.value.func)
                if method:
                    sites.append(
                        [
                            node.lineno,
                            f"sim.{method}() result is discarded: the event "
                            "can never be cancelled, so use "
                            f"sim.{_HANDLE_METHODS[method]}() and skip the "
                            "EventHandle allocation",
                        ]
                    )
            elif id(node) not in called:
                method = _sim_method(node)
                if method:
                    sites.append(
                        [
                            node.lineno,
                            f"sim.{method} is bound to an alias, hiding its "
                            "call sites from this check; call it directly "
                            f"or bind sim.{_HANDLE_METHODS[method]}",
                        ]
                    )
        return sites

    def file_findings(self, relpath: str, facts) -> Iterable[Finding]:
        if SIMULATOR_PACKAGE not in relpath:
            return
        for line, message in facts or ():
            yield self.finding(relpath, line, message)
