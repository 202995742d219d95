"""RL009 determinism taint: nondeterminism must never reach a digest.

The repo's core invariant is bit-identical SHA-256 run digests across
executor dispatch choices and process boundaries.  This pass
tracks how nondeterministic values travel:

* **Sources** — calls whose result varies per process/run (``id``,
  ``os.urandom``, ``time.*``, ``os.getpid``, ``uuid.uuid4``; from
  ``layers.toml [taint].sources``), iteration over a set-typed
  non-literal receiver (hash order), and ``sum()`` over a set (float
  accumulation order).
* **Sanitizers** — ``sorted``/``len``/``min``/``max``/``any``/``all``:
  their result does not depend on argument order.
* **Sinks** — digest-bearing calls (``fct_digest``, ``run_digest``,
  ``hashlib.sha256`` and friends, ``.update()`` on a hashlib object)
  and the digest-bearing fields of ``EvalResult``-style constructors
  (per ``[taint.sink_fields]``; metric fields like ``wall_time`` are
  deliberately excluded).

Analysis is two-tier:

1. **Extraction** (per file, cached): for every function an
   intra-procedural fixpoint computes each local's taint value —
   ``(tainted, deps)`` where deps name callee returns (``c:<dotted>``)
   and own parameters (``p:<index>``) whose taint would propagate.
   The summary records return taint, sink call sites with the merged
   argument taint, and outgoing calls carrying non-bottom arguments.
   Files in ``[taint].strict_packages`` additionally get *structural*
   findings for any set-order iteration — those packages feed digests
   by construction, so no flow proof is required.
2. **Finalize** (whole program, per-SCC cached): a fixpoint over the
   call graph resolves ``c:`` deps to project functions, propagates
   return taint and param-to-sink summaries across module boundaries,
   and emits findings where a resolved-tainted value meets a sink.
   Each SCC's result is cached under a signature of its member file
   hashes plus its direct successors' exported summaries, so a
   one-file edit re-evaluates only that SCC and the dependents whose
   inputs actually changed.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Dict, Iterable, List, Optional, Set, Tuple

from tools.replint.config import ReplintConfig, load_config
from tools.replint.core import Check, FileContext, Finding, ProjectIndex

#: Bottom of the taint lattice.
_CLEAN: Tuple[bool, frozenset] = (False, frozenset())

_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}


def _merge(*vals: Tuple[bool, frozenset]) -> Tuple[bool, frozenset]:
    tainted = any(v[0] for v in vals)
    deps: frozenset = frozenset().union(*(v[1] for v in vals))
    return (tainted, deps)


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    text = _dotted(node)
    if text is None and isinstance(node, ast.Subscript):
        text = _dotted(node.value)
    if text is None:
        return False
    leaf = text.rpartition(".")[2]
    return leaf in ("Set", "FrozenSet", "set", "frozenset", "MutableSet")


class _FunctionTaint:
    """Intra-procedural taint over one function body."""

    def __init__(
        self,
        name: str,
        params: List[str],
        body: List[ast.stmt],
        config: ReplintConfig,
        set_seed: Set[str],
    ):
        self.name = name
        self.params = params
        self.body = body
        self.config = config
        self.set_vars: Set[str] = set(set_seed)
        self.digest_vars: Set[str] = set()
        self.table: Dict[str, Tuple[bool, frozenset]] = {
            p: (False, frozenset({f"p:{i}"}))
            for i, p in enumerate(params)
        }
        self.ret: Tuple[bool, frozenset] = _CLEAN
        self.sinks: List[Dict] = []
        self.calls_out: List[Dict] = []
        self.strict_sites: List[List] = []

    # -- classification ---------------------------------------------------

    def _is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.Attribute):
            return (_dotted(node) or "") in self.set_vars
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self._is_set(node.left) or self._is_set(node.right)
        if isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            if name in _SET_CONSTRUCTORS:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
            ):
                return self._is_set(node.func.value)
        return False

    def _source_of(self, dotted: str) -> Optional[str]:
        for src in self.config.taint_sources:
            if "." in src:
                if dotted == src or dotted.endswith("." + src):
                    return src
            elif dotted == src:
                return src
        return None

    def _sink_of(self, dotted: str) -> Optional[str]:
        for sink in self.config.taint_sinks:
            if dotted == sink or dotted.endswith("." + sink):
                return sink
        return None

    def _is_sanitizer(self, dotted: str) -> bool:
        return dotted in self.config.taint_sanitizers

    # -- expression taint -------------------------------------------------

    def val(self, node: Optional[ast.expr]) -> Tuple[bool, frozenset]:
        if node is None or isinstance(node, ast.Constant):
            return _CLEAN
        if isinstance(node, ast.Name):
            return self.table.get(node.id, _CLEAN)
        if isinstance(node, ast.Attribute):
            return self.val(node.value)
        if isinstance(node, ast.Call):
            return self._call_val(node)
        if isinstance(node, (ast.BinOp,)):
            return _merge(self.val(node.left), self.val(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.val(node.operand)
        if isinstance(node, ast.BoolOp):
            return _merge(*(self.val(v) for v in node.values))
        if isinstance(node, ast.Compare):
            return _merge(
                self.val(node.left), *(self.val(c) for c in node.comparators)
            )
        if isinstance(node, ast.IfExp):
            return _merge(self.val(node.body), self.val(node.orelse))
        if isinstance(node, ast.JoinedStr):
            return _merge(
                *(
                    self.val(v.value if isinstance(v, ast.FormattedValue)
                             else v)
                    for v in node.values
                )
            ) if node.values else _CLEAN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _merge(*(self.val(e) for e in node.elts)) \
                if node.elts else _CLEAN
        if isinstance(node, ast.Dict):
            parts = [self.val(v) for v in node.values]
            parts += [self.val(k) for k in node.keys if k is not None]
            return _merge(*parts) if parts else _CLEAN
        if isinstance(node, ast.Subscript):
            return _merge(self.val(node.value), self.val(node.slice))
        if isinstance(node, ast.Starred):
            return self.val(node.value)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            parts = []
            for gen in node.generators:
                if self._is_set(gen.iter) and not isinstance(
                    gen.iter, (ast.Set, ast.SetComp)
                ):
                    parts.append((True, frozenset()))
                parts.append(self.val(gen.iter))
            return _merge(*parts) if parts else _CLEAN
        if isinstance(node, ast.DictComp):
            parts = [self.val(gen.iter) for gen in node.generators]
            return _merge(*parts) if parts else _CLEAN
        return _CLEAN

    def _call_val(self, node: ast.Call) -> Tuple[bool, frozenset]:
        dotted = _dotted(node.func)
        arg_vals = [self.val(a) for a in node.args] + [
            self.val(kw.value) for kw in node.keywords
        ]
        merged_args = _merge(*arg_vals) if arg_vals else _CLEAN
        if dotted is None:
            return merged_args
        if self._is_sanitizer(dotted):
            return _CLEAN
        if self._source_of(dotted):
            return (True, frozenset())
        if dotted == "sum" and node.args and self._is_set(node.args[0]):
            return (True, frozenset())
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            # Set algebra preserves set-ness, not order-taint.
            return merged_args
        return _merge(merged_args, (False, frozenset({f"c:{dotted}"})))

    # -- driver -----------------------------------------------------------

    def run(self, strict: bool) -> None:
        # Two assignment passes reach a fixpoint for straight-line code
        # with back-references (loops binding names used above).
        for _ in range(2):
            self._infer_sets(self.body)
            self._pass_statements(self.body)
        self._collect(self.body, strict)

    def _infer_sets(self, body: List[ast.stmt]) -> None:
        for node in self._walk(body):
            if isinstance(node, ast.Assign):
                if self._is_set(node.value):
                    for target in node.targets:
                        name = _dotted(target) if isinstance(
                            target, ast.Attribute
                        ) else (
                            target.id if isinstance(target, ast.Name)
                            else None
                        )
                        if name:
                            self.set_vars.add(name)
            elif isinstance(node, ast.AnnAssign):
                name = (
                    node.target.id
                    if isinstance(node.target, ast.Name)
                    else _dotted(node.target)
                )
                if name and (
                    _annotation_is_set(node.annotation)
                    or (node.value is not None and self._is_set(node.value))
                ):
                    self.set_vars.add(name)

    def _pass_statements(self, body: List[ast.stmt]) -> None:
        for node in self._walk(body):
            if isinstance(node, ast.Assign):
                value = self.val(node.value)
                if isinstance(node.value, ast.Call):
                    dotted = _dotted(node.value.func) or ""
                    if dotted.startswith("hashlib."):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                self.digest_vars.add(target.id)
                for target in node.targets:
                    self._bind(target, value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind(node.target, self.val(node.value))
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    current = self.table.get(node.target.id, _CLEAN)
                    self.table[node.target.id] = _merge(
                        current, self.val(node.value)
                    )
            elif isinstance(node, ast.For):
                iter_val = self.val(node.iter)
                if self._is_set(node.iter) and not isinstance(
                    node.iter, (ast.Set, ast.SetComp)
                ):
                    iter_val = _merge(iter_val, (True, frozenset()))
                self._bind(node.target, iter_val)
            elif isinstance(node, ast.Return):
                self.ret = _merge(self.ret, self.val(node.value))

    def _bind(self, target: ast.expr, value: Tuple[bool, frozenset]) -> None:
        if isinstance(target, ast.Name):
            self.table[target.id] = _merge(
                self.table.get(target.id, _CLEAN), value
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, value)

    def _collect(self, body: List[ast.stmt], strict: bool) -> None:
        for node in self._walk(body, expressions=True):
            if strict and isinstance(node, ast.For):
                if self._is_set(node.iter) and not isinstance(
                    node.iter, (ast.Set, ast.SetComp)
                ):
                    self.strict_sites.append(
                        [
                            node.lineno,
                            "iteration over a set has hash-dependent "
                            "order in a deterministic package; iterate "
                            "sorted(...) instead",
                        ]
                    )
            if strict and isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if self._is_set(gen.iter) and not isinstance(
                        gen.iter, (ast.Set, ast.SetComp)
                    ):
                        self.strict_sites.append(
                            [
                                node.lineno,
                                "comprehension over a set has "
                                "hash-dependent order in a deterministic "
                                "package; iterate sorted(...) instead",
                            ]
                        )
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if strict and dotted == "sum" and node.args and self._is_set(
                node.args[0]
            ):
                self.strict_sites.append(
                    [
                        node.lineno,
                        "sum() over a set accumulates floats in "
                        "hash-dependent order; sum(sorted(...)) instead",
                    ]
                )
            arg_vals = [self.val(a) for a in node.args] + [
                self.val(kw.value) for kw in node.keywords
            ]
            merged = _merge(*arg_vals) if arg_vals else _CLEAN
            sink = self._sink_of(dotted)
            if sink is None and isinstance(node.func, ast.Attribute):
                if node.func.attr == "update" and isinstance(
                    node.func.value, ast.Name
                ) and node.func.value.id in self.digest_vars:
                    sink = "hashlib update"
            if sink is not None and merged != _CLEAN:
                self.sinks.append(
                    {
                        "line": node.lineno,
                        "sink": sink,
                        "val": [merged[0], sorted(merged[1])],
                    }
                )
            leaf = dotted.rpartition(".")[2]
            fields = self.config.taint_sink_fields.get(leaf)
            if fields:
                # Per-field: wall_time=perf_counter() is legitimate
                # metrics metadata; only digest-bearing fields sink.
                for kw in node.keywords:
                    if kw.arg is None or kw.arg not in fields:
                        continue
                    kval = self.val(kw.value)
                    if kval != _CLEAN:
                        self.sinks.append(
                            {
                                "line": node.lineno,
                                "sink": f"{leaf}.{kw.arg}",
                                "val": [kval[0], sorted(kval[1])],
                            }
                        )
            if any(v != _CLEAN for v in arg_vals):
                self.calls_out.append(
                    {
                        "callee": dotted,
                        "line": node.lineno,
                        "args": [
                            [v[0], sorted(v[1])]
                            for v in (self.val(a) for a in node.args)
                        ],
                    }
                )

    def _walk(self, body: List[ast.stmt], expressions: bool = False):
        """Statements (and optionally expressions) of this function
        only — nested def/class bodies are separate summaries."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                     ast.Lambda),
                ):
                    continue
                stack.append(child)

    def summary(self) -> Dict:
        return {
            "params": self.params,
            "ret": [self.ret[0], sorted(self.ret[1])],
            "sinks": self.sinks,
            "calls": self.calls_out,
        }


def _function_bodies(tree: ast.Module):
    """Yield (qualname, params, body) for every function + ``<module>``."""
    module_body = [
        node
        for node in tree.body
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    yield "<module>", [], module_body

    def visit(nodes, prefix: str):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                args = node.args
                params = [
                    a.arg
                    for a in (
                        list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)
                    )
                ]
                yield qual, params, node.body, args
                yield from visit(node.body, f"{qual}.")
            elif isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.")

    for qual, params, body, args in visit(tree.body, ""):
        yield qual, params, body, args


class DeterminismTaintCheck(Check):
    id = "RL009"
    name = "determinism-taint"
    description = (
        "nondeterministic values (set-order iteration, id(), time.*, "
        "os.urandom) flowing into digest sinks across function and "
        "module boundaries"
    )

    def __init__(self, config: Optional[ReplintConfig] = None):
        self._config = config

    @property
    def config(self) -> ReplintConfig:
        if self._config is None:
            self._config = load_config()
        return self._config

    # -- extraction --------------------------------------------------------

    def extract(self, ctx: FileContext) -> Dict:
        config = self.config
        strict = any(
            pkg in ctx.relpath for pkg in config.taint_strict_packages
        )
        summaries: Dict[str, Dict] = {}
        strict_sites: List[List] = []
        for item in _function_bodies(ctx.tree):
            if len(item) == 3:
                qual, params, body = item
                set_seed: Set[str] = set()
            else:
                qual, params, body, args = item
                set_seed = set()
                for a in (
                    list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)
                ):
                    if _annotation_is_set(a.annotation):
                        set_seed.add(a.arg)
            analysis = _FunctionTaint(qual, params, body, config, set_seed)
            analysis.run(strict)
            strict_sites.extend(analysis.strict_sites)
            summary = analysis.summary()
            if (
                summary["ret"] != [False, []]
                or summary["sinks"]
                or summary["calls"]
            ):
                summaries[qual] = summary
        return {"strict": sorted(strict_sites), "fns": summaries}

    def file_findings(self, relpath: str, facts) -> Iterable[Finding]:
        for line, message in (facts or {}).get("strict", ()):
            yield self.finding(relpath, line, message)

    # -- whole-program propagation -----------------------------------------

    def finalize(self, project: ProjectIndex) -> Iterable[Finding]:
        graph = project.graph
        successors = graph.scc_successors()
        ret: Dict[str, bool] = {}
        sink_params: Dict[str, List[int]] = {}
        findings: List[Finding] = []

        def fn_facts(mod: str) -> Dict[str, Dict]:
            relpath = graph.modules[mod][0]
            facts = project.facts(self.id, relpath) or {}
            return facts.get("fns", {})

        def exported(scc_index: int) -> Dict:
            out = {}
            for mod in graph.sccs[scc_index]:
                for qual in fn_facts(mod):
                    fq = f"{mod}.{qual}"
                    out[fq] = [ret.get(fq, False), sink_params.get(fq, [])]
            return out

        for scc_index, members in enumerate(graph.sccs):
            signature_src = json.dumps(
                {
                    "members": [
                        [m, project.content_hash(graph.modules[m][0])]
                        for m in members
                    ],
                    "deps": [
                        exported(s) for s in sorted(successors[scc_index])
                    ],
                },
                sort_keys=True,
            )
            signature = hashlib.sha256(signature_src.encode()).hexdigest()
            cached = (
                project.cache.get_pass(self.id, signature)
                if project.cache is not None
                else None
            )
            if cached is not None:
                project.stats["sccs_reused"] = (
                    project.stats.get("sccs_reused", 0) + 1
                )
                for fq, (r, sp) in cached["summaries"].items():
                    ret[fq] = r
                    sink_params[fq] = sp
                for check, path, line, message in cached["findings"]:
                    findings.append(Finding(check, path, line, message))
                continue
            project.stats["sccs_evaluated"] = (
                project.stats.get("sccs_evaluated", 0) + 1
            )
            scc_findings = self._evaluate_scc(
                graph, members, fn_facts, ret, sink_params
            )
            findings.extend(scc_findings)
            if project.cache is not None:
                project.cache.put_pass(
                    self.id,
                    signature,
                    {
                        "summaries": exported(scc_index),
                        "findings": [
                            [f.check, f.path, f.line, f.message]
                            for f in scc_findings
                        ],
                    },
                )
        return findings

    def _evaluate_scc(
        self, graph, members, fn_facts, ret, sink_params
    ) -> List[Finding]:
        # Fixpoint over the SCC: return taint and param-to-sink
        # summaries may be mutually recursive within a cycle.
        local: List[Tuple[str, str, str, Dict]] = []  # mod, qual, fq, summary
        for mod in members:
            for qual, summary in sorted(fn_facts(mod).items()):
                fq = f"{mod}.{qual}"
                ret.setdefault(fq, False)
                sink_params.setdefault(fq, [])
                local.append((mod, qual, fq, summary))

        def resolve(mod: str, qual: str, dep: str) -> Optional[str]:
            if not dep.startswith("c:"):
                return None
            return graph.resolve_call(mod, qual, dep[2:])

        def val_tainted(mod: str, qual: str, val: List) -> bool:
            tainted, deps = val
            if tainted:
                return True
            for dep in deps:
                target = resolve(mod, qual, dep)
                if target is not None and ret.get(target, False):
                    return True
            return False

        changed = True
        while changed:
            changed = False
            for mod, qual, fq, summary in local:
                new_ret = val_tainted(mod, qual, summary["ret"])
                if new_ret and not ret[fq]:
                    ret[fq] = True
                    changed = True
                new_params: Set[int] = set(sink_params[fq])
                for sink in summary["sinks"]:
                    for dep in sink["val"][1]:
                        if dep.startswith("p:"):
                            new_params.add(int(dep[2:]))
                for call in summary["calls"]:
                    callee = graph.resolve_call(mod, qual, call["callee"])
                    if callee is None:
                        continue
                    forwarded = set(sink_params.get(callee, []))
                    for idx, arg in enumerate(call["args"]):
                        if idx not in forwarded:
                            continue
                        for dep in arg[1]:
                            if dep.startswith("p:"):
                                new_params.add(int(dep[2:]))
                if new_params != set(sink_params[fq]):
                    sink_params[fq] = sorted(new_params)
                    changed = True

        findings: List[Finding] = []
        for mod, qual, fq, summary in local:
            relpath = graph.modules[mod][0]
            for sink in summary["sinks"]:
                if val_tainted(mod, qual, sink["val"]):
                    findings.append(
                        self.finding(
                            relpath,
                            sink["line"],
                            f"nondeterministic value reaches digest sink "
                            f"{sink['sink']!r} in {qual}; order the data "
                            "(sorted(...)) before it is hashed",
                        )
                    )
            for call in summary["calls"]:
                callee = graph.resolve_call(mod, qual, call["callee"])
                if callee is None:
                    continue
                forwarded = set(sink_params.get(callee, []))
                if not forwarded:
                    continue
                for idx, arg in enumerate(call["args"]):
                    if idx in forwarded and val_tainted(mod, qual, arg):
                        findings.append(
                            self.finding(
                                relpath,
                                call["line"],
                                "nondeterministic argument flows through "
                                f"{call['callee']}() into a digest sink",
                            )
                        )
        return findings
