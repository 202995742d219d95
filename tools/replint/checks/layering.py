"""RL008 layering: enforce the architecture DAG from ``layers.toml``.

Every module maps to a layer by path prefix; a module may import its
own layer or any *lower* layer.  Two finding families:

* **Upward edge** — an import (lazy ones included: the known tangles
  all hid inside function bodies) whose destination sits in a higher
  layer than the source.  ``TYPE_CHECKING``-guarded imports are
  exempt: they never execute, and annotations are the one place a
  lower layer may name an upper-layer type.
* **Import cycle** — a strongly-connected component of ≥2 modules in
  the *eager* import subgraph (lazy edges dropped: a lazy import is
  precisely how a cycle is broken at import time, so only eager cycles
  can deadlock module init).

The pass itself is a trivial scan over resolved module edges; all the
cost lives in the per-file fact extraction.
"""

from __future__ import annotations

from typing import Iterable, Optional

from tools.replint.config import ReplintConfig, load_config
from tools.replint.core import Check, Finding, ProjectIndex


class LayeringCheck(Check):
    id = "RL008"
    name = "layering"
    description = (
        "architecture-DAG violations: upward imports between layers "
        "and eager import cycles (layers.toml)"
    )

    def __init__(self, config: Optional[ReplintConfig] = None):
        self._config = config

    @property
    def config(self) -> ReplintConfig:
        if self._config is None:
            self._config = load_config()
        return self._config

    def finalize(self, project: ProjectIndex) -> Iterable[Finding]:
        config = self.config
        graph = project.graph
        seen = set()
        for edge in graph.import_edges:
            if edge["typeonly"]:
                continue
            # `from X import A, B` yields one record per alias; they
            # share a module edge, so report it once per line.
            key = (edge["src"], edge["dst"], edge["line"])
            if key in seen:
                continue
            seen.add(key)
            src_rel = graph.modules[edge["src"]][0]
            dst_rel = graph.modules[edge["dst"]][0]
            src_layer = config.layer_of(src_rel)
            dst_layer = config.layer_of(dst_rel)
            if not src_layer or not dst_layer:
                continue
            if config.layer_index(dst_layer) > config.layer_index(src_layer):
                lazy = " (lazy)" if edge["lazy"] else ""
                yield self.finding(
                    src_rel,
                    edge["line"],
                    f"layer {src_layer!r} imports {edge['dst']} from "
                    f"higher layer {dst_layer!r}{lazy}; invert the "
                    "dependency or move the shared piece down "
                    "(see tools/replint/layers.toml)",
                )
        for cycle in graph.eager_cycles():
            anchor_rel = graph.modules[cycle[0]][0]
            yield self.finding(
                anchor_rel,
                1,
                "eager import cycle: " + " <-> ".join(cycle),
            )
