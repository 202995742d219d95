"""RL005 fork-safety: keep the process-pool boundary picklable & clean.

Two failure families the pool surface invites:

* **Unpicklable callables crossing the boundary** — a lambda or a
  function defined inside another function handed to
  ``ProcessPoolExecutor.submit`` (or stashed on an ``EvalTask``) dies
  at pickling time, but only on the first run with ``jobs > 1``, which
  is exactly the configuration the unit suite exercises least.
* **Module-level mutable state in worker-imported modules** — a
  module-scope ``dict``/``list``/``set`` in ``repro/parallel/`` is
  *per-process* after fork; code that reads it in the parent after
  workers mutate it sees stale data.  Deliberate worker-globals (the
  crash-injection hook, the shared-pool handle) are ``None``-initialised
  and escape the literal heuristic; anything container-valued needs a
  pragma with a rationale.

RL010 (fork-reachability) is the interprocedural upgrade of the second
family: it follows the call graph from the worker entry points instead
of stopping at the package boundary.  RL005 keeps the package-boundary
rule; both run in the same whole-tree pass.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from tools.replint.core import Check, FileContext, Finding

#: Package whose modules hold the pool boundary.
POOL_PACKAGES: Tuple[str, ...] = ("repro/parallel/",)

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "defaultdict", "deque"}

#: Call targets treated as pool submissions / task constructions.
_SUBMIT_ATTRS = {"submit"}
_TASK_CONSTRUCTORS = {"EvalTask"}


def _nested_def_names(tree: ast.Module) -> Set[str]:
    """Names of functions/classes defined inside another function."""
    nested: Set[str] = set()

    class _Visitor(ast.NodeVisitor):
        def _visit_scope(self, node):
            for inner in ast.walk(node):
                if inner is node:
                    continue
                if isinstance(
                    inner,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    nested.add(inner.name)

        def visit_FunctionDef(self, node):
            self._visit_scope(node)

        visit_AsyncFunctionDef = visit_FunctionDef

    _Visitor().visit(tree)
    return nested


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


class ForkSafetyCheck(Check):
    id = "RL005"
    name = "fork-safety"
    description = (
        "lambdas/nested callables crossing the pool boundary; "
        "module-level mutable containers in repro/parallel/"
    )

    def extract(self, ctx: FileContext) -> dict:
        nested = _nested_def_names(ctx.tree)
        boundary: List = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                boundary.extend(self._call_sites(node, nested))
        module_state: List = []
        for node in ctx.tree.body:
            targets: List[ast.expr] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_mutable_literal(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id.startswith("__"):  # __all__ and friends
                    continue
                module_state.append(
                    [
                        node.lineno,
                        f"module-level mutable container {target.id!r} in "
                        "a pool-boundary module diverges per worker after "
                        "fork; make it immutable or justify with a pragma",
                    ]
                )
        return {"boundary": boundary, "module_state": module_state}

    def _call_sites(self, node: ast.Call, nested: Set[str]) -> List:
        func = node.func
        is_submit = (
            isinstance(func, ast.Attribute) and func.attr in _SUBMIT_ATTRS
        )
        is_task = (
            isinstance(func, ast.Name) and func.id in _TASK_CONSTRUCTORS
        )
        if not (is_submit or is_task):
            return []
        where = (
            "pool submit()" if is_submit else f"{func.id} field"  # type: ignore[union-attr]
        )
        sites: List = []
        args = list(node.args) + [kw.value for kw in node.keywords]
        for arg in args:
            if isinstance(arg, ast.Lambda):
                sites.append(
                    [
                        arg.lineno,
                        f"lambda passed to {where} cannot be pickled by "
                        "pool workers; use a module-level function",
                    ]
                )
            elif (
                is_submit
                and isinstance(arg, ast.Name)
                and arg.id in nested
            ):
                sites.append(
                    [
                        arg.lineno,
                        f"locally-defined callable {arg.id!r} passed to "
                        f"{where} cannot be pickled by pool workers; "
                        "move it to module level",
                    ]
                )
        return sites

    def file_findings(self, relpath: str, facts) -> Iterable[Finding]:
        facts = facts or {}
        for line, message in facts.get("boundary", ()):
            yield self.finding(relpath, line, message)
        if any(pkg in relpath for pkg in POOL_PACKAGES):
            for line, message in facts.get("module_state", ()):
                yield self.finding(relpath, line, message)
