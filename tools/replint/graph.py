"""Whole-program import/call graph over the ``repro`` package.

This is the substrate the graph-powered checks share.  It is built in
two phases, so the AST is needed only while its file is extracted:

1. **Per-file extraction** (:func:`extract_file_facts`) — a pure
   function of one file's AST producing a plain facts dict: module
   name, import edges (with lazy/type-only flags), the def table
   (functions, methods, classes), best-effort dotted call sites per
   definition, bare attribute-call names (for duck-typed linking),
   and module-global read/write/mutation sites.

2. **Project assembly** (:class:`ProjectGraph`) — joins every file's
   facts into module-level import edges, symbol tables, a resolved
   call graph, and the SCC condensation (Tarjan) that the layering
   pass and the taint propagation order key on.

Resolution is deliberately best-effort: Python's dynamism means a
sound-and-complete call graph is unreachable, so each consumer picks
the bias it needs — RL008 uses only import edges (precise), RL009
follows only *resolved* calls (under-approximate, avoids false
taint), RL010 additionally duck-links attribute calls by method name
(over-approximate, the right bias for a reachability closure).
"""

from __future__ import annotations

import ast
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

#: Names treated as mutable-container constructors (matches RL005).
MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)

#: Method calls that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "sort",
        "reverse", "appendleft", "popleft",
    }
)


def module_name(relpath: str) -> Optional[str]:
    """Dotted module name of a repo-relative path, or None.

    ``src/repro/simulator/fluid.py`` -> ``repro.simulator.fluid``;
    ``src/repro/__init__.py`` -> ``repro``.  Files outside ``src/``
    (tools, tests, benchmarks) are not part of the analyzed program.
    """
    if not relpath.startswith("src/") or not relpath.endswith(".py"):
        return None
    parts = relpath[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return None
    return ".".join(parts)


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FactsVisitor(ast.NodeVisitor):
    """Single walk collecting defs, calls, refs and global uses."""

    def __init__(self, module: str, mutable_globals: Set[str]):
        self.module = module
        self.mutable_globals = mutable_globals
        self.defs: Dict[str, Dict] = {}
        self.classes: Dict[str, Dict] = {}
        self.calls: Dict[str, List] = {}
        self.attr_calls: Dict[str, List] = {}
        self.refs: Dict[str, List] = {}
        self.global_reads: Dict[str, List] = {}
        self.global_writes: Dict[str, List] = {}
        self._scope: List[str] = []  # e.g. ["SweepExecutor", "map"]
        self._class: List[str] = []

    # -- scope bookkeeping ------------------------------------------------

    @property
    def qualname(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        kind = (
            "method"
            if self._class and len(self._scope) == len(self._class)
            else "function"
        )
        self._scope.append(node.name)
        self.defs[self.qualname] = {
            "line": node.lineno,
            "kind": kind,
            "cls": self._class[-1] if self._class else None,
        }
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self._class.append(node.name)
        self.classes[node.name] = {
            "line": node.lineno,
            "bases": [b for b in (_dotted(x) for x in node.bases) if b],
        }
        self.generic_visit(node)
        self._class.pop()
        self._scope.pop()

    # -- calls / refs -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is not None:
            self.calls.setdefault(self.qualname, []).append(
                [name, node.lineno]
            )
            # Receiver of a mutating method on a module global.
            head, _, tail = name.rpartition(".")
            if tail in MUTATING_METHODS and head in self.mutable_globals:
                if self._scope:
                    self.global_writes.setdefault(self.qualname, []).append(
                        [head, node.lineno, f".{tail}()"]
                    )
        if isinstance(node.func, ast.Attribute):
            self.attr_calls.setdefault(self.qualname, []).append(
                [node.func.attr, node.lineno]
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.mutable_globals and self._scope:
            if isinstance(node.ctx, ast.Load):
                self.global_reads.setdefault(self.qualname, []).append(
                    [node.id, node.lineno]
                )
            else:
                self.global_writes.setdefault(self.qualname, []).append(
                    [node.id, node.lineno, "assignment"]
                )
        if isinstance(node.ctx, ast.Load):
            self.refs.setdefault(self.qualname, []).append(node.id)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # GLOBAL[key] = value  /  del GLOBAL[key]
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            base = node.value
            if (
                isinstance(base, ast.Name)
                and base.id in self.mutable_globals
                and self._scope
            ):
                self.global_writes.setdefault(self.qualname, []).append(
                    [base.id, node.lineno, "item assignment"]
                )
        self.generic_visit(node)


def _collect_imports(
    tree: ast.Module, module: Optional[str], is_package: bool
) -> List[Dict]:
    """Import records with lazy (function-scope) / type-only flags."""
    records: List[Dict] = []
    # Anchor for relative imports: level N strips N components off the
    # *file's* package path.  For a plain module that path is the
    # module minus its last component; for a package __init__ it is
    # the module itself, so pad with a dummy leaf before stripping.
    anchor = (module or "").split(".") if module else []
    if is_package:
        anchor = anchor + ["__init__"]

    def walk(node: ast.AST, lazy: bool, typeonly: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_lazy = lazy or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            child_typeonly = typeonly
            if isinstance(child, ast.If):
                flag = _dotted(child.test) or ""
                if flag.endswith("TYPE_CHECKING"):
                    child_typeonly = True
            if isinstance(child, ast.Import):
                for alias in child.names:
                    records.append(
                        {
                            "target": alias.name,
                            "name": None,
                            "local": alias.asname or alias.name.split(".")[0],
                            "line": child.lineno,
                            "lazy": lazy,
                            "typeonly": typeonly,
                        }
                    )
            elif isinstance(child, ast.ImportFrom):
                target = child.module or ""
                if child.level:
                    base = anchor[: len(anchor) - child.level]
                    target = ".".join(base + ([target] if target else []))
                for alias in child.names:
                    records.append(
                        {
                            "target": target,
                            "name": alias.name,
                            "local": alias.asname or alias.name,
                            "line": child.lineno,
                            "lazy": lazy,
                            "typeonly": typeonly,
                        }
                    )
            else:
                walk(child, child_lazy, child_typeonly)

    walk(tree, lazy=False, typeonly=False)
    return records


def module_level_mutables(tree: ast.Module) -> Dict[str, int]:
    """Module-scope names bound to mutable containers (name -> line)."""
    table: Dict[str, int] = {}
    for node in tree.body:
        targets: List[ast.expr] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in MUTABLE_CONSTRUCTORS
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                table[target.id] = node.lineno
    return table


def extract_file_facts(relpath: str, tree: ast.Module) -> Dict:
    """The per-file graph facts :class:`ProjectGraph` joins."""
    module = module_name(relpath)
    mutables = module_level_mutables(tree)
    visitor = _FactsVisitor(module or "", set(mutables))
    visitor.visit(tree)
    return {
        "module": module,
        "imports": _collect_imports(
            tree, module, relpath.endswith("/__init__.py")
        ),
        "defs": visitor.defs,
        "classes": visitor.classes,
        "calls": visitor.calls,
        "attr_calls": visitor.attr_calls,
        "refs": {
            qual: sorted(set(names))
            for qual, names in visitor.refs.items()
        },
        "globals_mutable": mutables,
        "global_reads": visitor.global_reads,
        "global_writes": visitor.global_writes,
    }


def strongly_connected(
    nodes: Sequence[str], adjacency: Dict[str, List[str]]
) -> List[List[str]]:
    """Tarjan's SCCs, iterative, in reverse topological order
    (dependencies before dependents).  Components are sorted lists."""
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(adjacency.get(root, ())))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in adjacency:
                    continue
                if nxt not in index_of:
                    index_of[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))

    for node in sorted(nodes):
        if node not in index_of:
            strongconnect(node)
    return sccs


# ---------------------------------------------------------------------------
# Project graph
# ---------------------------------------------------------------------------


class ProjectGraph:
    """Modules, import edges, symbols, call graph, SCC condensation."""

    def __init__(self, facts_by_path: Dict[str, Dict]):
        #: module -> (relpath, facts)
        self.modules: Dict[str, Tuple[str, Dict]] = {}
        for relpath, facts in sorted(facts_by_path.items()):
            mod = facts.get("module")
            if mod:
                self.modules[mod] = (relpath, facts)
        self._symbols: Dict[str, Dict[str, str]] = {}
        self._edges: Optional[List[Dict]] = None
        self._sccs: Optional[List[List[str]]] = None
        self._methods_by_name: Optional[Dict[str, List[str]]] = None

    # -- import edges -----------------------------------------------------

    def _resolve_import_target(self, record: Dict) -> Optional[str]:
        """Project module an import record lands on, or None."""
        target = record["target"]
        name = record["name"]
        if name and name != "*" and f"{target}.{name}" in self.modules:
            return f"{target}.{name}"  # `from repro.tuning import grid`
        probe = target
        while probe:
            if probe in self.modules:
                return probe
            probe = probe.rpartition(".")[0]
        return None

    @property
    def import_edges(self) -> List[Dict]:
        """Module-level edges: src, dst, line, lazy, typeonly."""
        if self._edges is None:
            edges: List[Dict] = []
            for mod, (_, facts) in sorted(self.modules.items()):
                for record in facts["imports"]:
                    dst = self._resolve_import_target(record)
                    if dst is None or dst == mod:
                        continue
                    edges.append(
                        {
                            "src": mod,
                            "dst": dst,
                            "line": record["line"],
                            "lazy": record["lazy"],
                            "typeonly": record["typeonly"],
                        }
                    )
            self._edges = edges
        return self._edges

    # -- symbols ----------------------------------------------------------

    def symbols(self, mod: str) -> Dict[str, str]:
        """Local name -> fully qualified target for one module."""
        if mod not in self._symbols:
            table: Dict[str, str] = {}
            _, facts = self.modules[mod]
            for record in facts["imports"]:
                if record["typeonly"]:
                    continue
                target, name = record["target"], record["name"]
                fq = f"{target}.{name}" if name and name != "*" else target
                table[record["local"]] = fq
            for qual in facts["defs"]:
                if "." not in qual:
                    table[qual] = f"{mod}.{qual}"
            for cls in facts["classes"]:
                table[cls] = f"{mod}.{cls}"
            self._symbols[mod] = table
        return self._symbols[mod]

    def _chase(self, target: str, depth: int = 5) -> Optional[Tuple[str, str]]:
        """Resolve ``target`` through re-exports to (module, qualname).

        ``repro.parallel.EvalTask`` chases the ``from .tasks import
        EvalTask`` in the package __init__ to ``repro.parallel.tasks``.
        """
        for _ in range(depth):
            probe = target
            while probe and probe not in self.modules:
                probe = probe.rpartition(".")[0]
            if not probe:
                return None
            qual = target[len(probe) + 1:]
            if not qual:
                return None
            _, facts = self.modules[probe]
            if qual in facts["defs"] or qual in facts["classes"]:
                return probe, qual
            head, _, rest = qual.partition(".")
            origin = self.symbols(probe).get(head)
            if origin is None or origin == target:
                return None
            target = f"{origin}.{rest}" if rest else origin
        return None

    def resolve_call(
        self, mod: str, caller: str, dotted: str
    ) -> Optional[str]:
        """Fully qualified project def a call lands on, or None.

        ``caller`` is the caller's qualname within ``mod`` (used for
        ``self.m()`` receiver inference).  A call on a class resolves
        to its ``__init__`` when one is defined.
        """
        head, _, rest = dotted.partition(".")
        if mod not in self.modules:
            return None
        _, facts = self.modules[mod]
        if head in ("self", "cls") and rest and "." not in rest:
            cls: Optional[str] = facts["defs"].get(caller, {}).get("cls")
            seen: Set[str] = set()
            while cls and cls not in seen:
                seen.add(cls)
                qual = f"{cls}.{rest}"
                if qual in facts["defs"]:
                    return f"{mod}.{qual}"
                bases = facts["classes"].get(cls, {}).get("bases", [])
                cls = bases[0].rpartition(".")[2] if bases else None
            return None
        origin = self.symbols(mod).get(head)
        if origin is None and "." in dotted:
            return None  # attribute call on an unknown receiver
        if origin is None:
            return None  # undefined bare name: builtin or local
        target = f"{origin}.{rest}" if rest else origin
        hit = self._chase(target)
        if hit is None:
            return None
        tmod, qual = hit
        _, tfacts = self.modules[tmod]
        if qual in tfacts["classes"]:
            init = f"{qual}.__init__"
            if init in tfacts["defs"]:
                return f"{tmod}.{init}"
        return f"{tmod}.{qual}"

    # -- duck-typed method linking ---------------------------------------

    def methods_named(self, name: str) -> List[str]:
        if self._methods_by_name is None:
            index: Dict[str, List[str]] = {}
            for mod, (_, facts) in sorted(self.modules.items()):
                for qual, info in facts["defs"].items():
                    if info.get("kind") != "method":
                        continue
                    index.setdefault(qual.rpartition(".")[2], []).append(
                        f"{mod}.{qual}"
                    )
            self._methods_by_name = index
        return self._methods_by_name.get(name, [])

    # -- SCC condensation --------------------------------------------------

    @property
    def sccs(self) -> List[List[str]]:
        """SCCs of the module import graph (lazy edges included,
        type-only excluded), dependencies before dependents."""
        if self._sccs is None:
            adjacency: Dict[str, List[str]] = {m: [] for m in self.modules}
            for edge in self.import_edges:
                if edge["typeonly"]:
                    continue
                adjacency[edge["src"]].append(edge["dst"])
            self._sccs = strongly_connected(sorted(self.modules), adjacency)
        return self._sccs

    def eager_cycles(self) -> List[List[str]]:
        """Import cycles in the eager subgraph (lazy + type-only edges
        dropped) — these are the cycles that bite at import time."""
        adjacency: Dict[str, List[str]] = {m: [] for m in self.modules}
        for edge in self.import_edges:
            if edge["typeonly"] or edge["lazy"]:
                continue
            adjacency[edge["src"]].append(edge["dst"])
        return [
            comp
            for comp in strongly_connected(sorted(self.modules), adjacency)
            if len(comp) > 1
        ]

    # -- reachability -----------------------------------------------------

    def owner_of(self, fq: str) -> Optional[Tuple[str, str]]:
        """Split a fully qualified def into (module, qualname)."""
        mod = fq
        while mod and mod not in self.modules:
            mod = mod.rpartition(".")[0]
        if not mod:
            return None
        qual = fq[len(mod) + 1:] or "<module>"
        return mod, qual

    def reachable_defs(
        self,
        entries: Iterable[str],
        duck_blocklist: FrozenSet[str] = frozenset(),
    ) -> Set[str]:
        """Closure of defs reachable from ``entries`` via resolved
        calls, address-taken references, and duck-linked attribute
        calls (method-name match, minus the blocklist)."""
        seen: Set[str] = set()
        work: List[str] = sorted(entries)
        while work:
            current = work.pop()
            if current in seen:
                continue
            seen.add(current)
            owner = self.owner_of(current)
            if owner is None:
                continue
            mod, qual = owner
            _, facts = self.modules[mod]
            for dotted, _line in facts["calls"].get(qual, ()):
                target = self.resolve_call(mod, qual, dotted)
                if target:
                    work.append(target)
            for name, _line in facts["attr_calls"].get(qual, ()):
                if name in duck_blocklist:
                    continue
                work.extend(self.methods_named(name))
            symbols = self.symbols(mod)
            for ref in facts["refs"].get(qual, ()):
                origin = symbols.get(ref)
                if origin is None:
                    continue
                hit = self._chase(origin)
                if hit is None:
                    continue
                rmod, rqual = hit
                if rqual in self.modules[rmod][1]["defs"]:
                    work.append(f"{rmod}.{rqual}")
        return seen
