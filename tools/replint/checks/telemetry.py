"""RL003 telemetry-sync: emit sites must match the schema catalog.

``repro/telemetry/schema.py`` declares, per record name, the attrs a
record must carry (``EVENT_ATTRS`` / ``SPAN_ATTRS``).  The runtime
validator can only prove *presence* on traces that were actually
recorded; this check closes the loop statically: every
``trace.event("name", {...})`` / ``trace.span("name", {...})`` in the
tree is extracted and diffed against the catalog, so

* an emit site with a name the catalog has never heard of,
* a literal attrs dict missing a catalogued key,
* a literal attrs dict carrying keys the catalog does not list, and
* a catalogued name that no emit site in the tree produces

are all build failures — the catalog and the instrumentation cannot
drift apart silently in either direction.

Dict literals containing ``**spread`` elements are diffed on their
literal keys only (extra-key errors still fire; missing-key errors are
suppressed because the spread may supply them).
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from tools.replint.core import Check, FileContext, Finding, ProjectIndex

#: The schema module (catalog source) and the emitter itself are not
#: emit *sites*; ``TraceEmitter.event`` would read as one otherwise.
_EXCLUDED_SUFFIXES = (
    "repro/telemetry/trace.py",
    "repro/telemetry/schema.py",
)

_SCHEMA_SUFFIX = "repro/telemetry/schema.py"


@dataclass
class EmitSite:
    """One statically extracted ``trace.event``/``trace.span`` call."""

    relpath: str
    line: int
    kind: str  # "event" | "span"
    name: Optional[str]  # None when not a string literal
    keys: Tuple[str, ...]  # literal attr keys, in source order
    has_spread: bool  # dict carried **spread / non-literal keys
    has_attrs: bool  # an attrs argument was present at all
    attrs_is_literal: bool  # ... and it was a dict display


def extract_emit_sites(tree: ast.Module, relpath: str) -> List[EmitSite]:
    """Every ``trace.event(...)``/``trace.span(...)`` call in ``tree``."""
    sites: List[EmitSite] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("event", "span")
            and isinstance(func.value, ast.Name)
            and func.value.id == "trace"
        ):
            continue
        name: Optional[str] = None
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
            node.args[0].value, str
        ):
            name = node.args[0].value
        attrs_node: Optional[ast.expr] = None
        if len(node.args) > 1:
            attrs_node = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "attrs":
                    attrs_node = kw.value
        keys: List[str] = []
        has_spread = False
        attrs_is_literal = isinstance(attrs_node, ast.Dict)
        if isinstance(attrs_node, ast.Dict):
            for key in attrs_node.keys:
                if key is None:  # {**spread}
                    has_spread = True
                elif isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.append(key.value)
                else:
                    has_spread = True  # dynamic key: treat as opaque
        sites.append(
            EmitSite(
                relpath=relpath,
                line=node.lineno,
                kind=func.attr,
                name=name,
                keys=tuple(keys),
                has_spread=has_spread,
                has_attrs=attrs_node is not None,
                attrs_is_literal=attrs_is_literal,
            )
        )
    return sites


def _catalog_assignments(tree: ast.Module) -> Iterable[Tuple[str, ast.expr]]:
    """``(target name, value)`` of each module-level catalog assignment."""
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id in (
                "EVENT_ATTRS", "SPAN_ATTRS"
            ):
                yield target.id, value


def extract_catalog(
    tree: ast.Module,
) -> Tuple[Optional[Dict[str, Tuple[str, ...]]],
           Optional[Dict[str, Tuple[str, ...]]]]:
    """``(EVENT_ATTRS, SPAN_ATTRS)`` literal-evaluated from the schema."""
    events: Optional[Dict[str, Tuple[str, ...]]] = None
    spans: Optional[Dict[str, Tuple[str, ...]]] = None
    for target, value in _catalog_assignments(tree):
        try:
            evaluated = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            continue
        if target == "EVENT_ATTRS":
            events = {k: tuple(v) for k, v in evaluated.items()}
        else:
            spans = {k: tuple(v) for k, v in evaluated.items()}
    return events, spans


def _catalog_lines(tree: ast.Module) -> Dict[str, int]:
    """``"<kind> <name>"`` -> line of that catalog row in the schema."""
    lines: Dict[str, int] = {}
    for target, value in _catalog_assignments(tree):
        if not isinstance(value, ast.Dict):
            continue
        kind = "event" if target == "EVENT_ATTRS" else "span"
        for key in value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                lines[f"{kind} {key.value}"] = key.lineno
    return lines


class TelemetrySyncCheck(Check):
    id = "RL003"
    name = "telemetry-sync"
    description = (
        "trace.event/trace.span names and attr keys must match the "
        "EVENT_ATTRS/SPAN_ATTRS catalog in repro/telemetry/schema.py"
    )

    def extract(self, ctx: FileContext) -> Dict:
        facts: Dict = {}
        if ctx.relpath.endswith(_SCHEMA_SUFFIX):
            events, spans = extract_catalog(ctx.tree)
            facts["is_schema"] = True
            facts["catalog_ok"] = events is not None and spans is not None
            facts["events"] = (
                {k: list(v) for k, v in events.items()} if events else {}
            )
            facts["spans"] = (
                {k: list(v) for k, v in spans.items()} if spans else {}
            )
            facts["lines"] = _catalog_lines(ctx.tree)
            return facts
        if any(ctx.relpath.endswith(s) for s in _EXCLUDED_SUFFIXES):
            return facts
        sites = extract_emit_sites(ctx.tree, ctx.relpath)
        if sites:
            facts["sites"] = [asdict(site) for site in sites]
        return facts

    def finalize(self, project: ProjectIndex) -> Iterable[Finding]:
        schema = None
        for record in project.records:
            facts = record.facts.get(self.id) or {}
            if facts.get("is_schema"):
                schema = (record.relpath, facts)
        if schema is None:
            # Scanned tree doesn't include the schema (e.g. a single
            # file was linted): nothing to diff against.
            return
        schema_path, catalog = schema
        events: Dict[str, Tuple[str, ...]] = {}
        spans: Dict[str, Tuple[str, ...]] = {}
        if catalog["catalog_ok"]:
            events = {k: tuple(v) for k, v in catalog["events"].items()}
            spans = {k: tuple(v) for k, v in catalog["spans"].items()}
        else:
            yield self.finding(
                schema_path,
                1,
                "EVENT_ATTRS/SPAN_ATTRS must be literal dicts "
                "(statically evaluable)",
            )
        emitted: Dict[str, set] = {"event": set(), "span": set()}
        for record in project.records:
            facts = record.facts.get(self.id) or {}
            for raw in facts.get("sites", ()):
                site = EmitSite(**{**raw, "keys": tuple(raw["keys"])})
                emitted[site.kind].add(site.name)
                yield from self._diff_site(site, events, spans)
        for kind, names in (("event", events), ("span", spans)):
            for name in sorted(set(names) - emitted[kind]):
                yield self.finding(
                    schema_path,
                    catalog["lines"].get(f"{kind} {name}", 1),
                    f"{kind} {name!r} is catalogued but no trace.{kind} "
                    "site in the tree emits it",
                )

    def _diff_site(
        self,
        site: EmitSite,
        events: Dict[str, Tuple[str, ...]],
        spans: Dict[str, Tuple[str, ...]],
    ) -> Iterable[Finding]:
        catalog = events if site.kind == "event" else spans
        label = f"{site.kind} {site.name!r}"
        if site.name is None:
            yield self.finding(
                site.relpath,
                site.line,
                f"trace.{site.kind} name must be a string literal "
                "(statically checkable against the catalog)",
            )
            return
        if site.name not in catalog:
            yield self.finding(
                site.relpath,
                site.line,
                f"{label} is not in the telemetry catalog "
                f"({'EVENT' if site.kind == 'event' else 'SPAN'}"
                "_ATTRS)",
            )
            return
        if not site.has_attrs or not site.attrs_is_literal:
            # A shared helper may pass a prebuilt dict; the runtime
            # validator still enforces required keys there.
            return
        required = set(catalog[site.name])
        literal = set(site.keys)
        missing = sorted(required - literal)
        extra = sorted(literal - required)
        if missing and not site.has_spread:
            yield self.finding(
                site.relpath,
                site.line,
                f"{label} attrs missing catalogued keys: "
                + ", ".join(missing),
            )
        if extra:
            yield self.finding(
                site.relpath,
                site.line,
                f"{label} attrs not in catalog: " + ", ".join(extra),
            )
