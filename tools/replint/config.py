"""Typed view of ``layers.toml`` — the analyzer's committed contract.

The graph-powered checks (RL008 layering, RL009 determinism taint,
RL010 fork reachability, RL011 contract sync) are data-driven: the
layer DAG, taint vocabulary, fork entry points and artifact paths all
live in ``tools/replint/layers.toml`` so the enforced architecture is
reviewable without reading analyzer code.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

DEFAULT_CONFIG_PATH = Path(__file__).parent / "layers.toml"


@dataclass(frozen=True)
class ReplintConfig:
    """Parsed ``layers.toml``."""

    # RL008
    layer_order: Tuple[str, ...]
    layer_assign: Dict[str, str]  # path prefix -> layer name
    # RL009
    taint_sources: Tuple[str, ...]
    taint_sanitizers: Tuple[str, ...]
    taint_sinks: Tuple[str, ...]
    taint_sink_fields: Dict[str, Tuple[str, ...]]
    taint_strict_packages: Tuple[str, ...]
    # RL010
    fork_entries: Tuple[str, ...]
    fork_entry_methods: Tuple[str, ...]
    fork_sanctioned: Tuple[str, ...]
    duck_blocklist: frozenset
    # RL011
    env_module: str
    cli_module: str
    readme: str
    readme_table_begin: str
    readme_table_end: str
    build_files: Tuple[str, ...]
    flag_allowlist: Tuple[str, ...]

    def layer_index(self, name: str) -> int:
        return self.layer_order.index(name)

    def layer_of(self, relpath: str) -> str:
        """Layer of a repo-relative path (longest prefix wins).

        Returns ``""`` for files outside every assigned prefix — those
        are invisible to RL008.
        """
        path = relpath
        if path.startswith("src/"):
            path = path[len("src/"):]
        best, best_len = "", -1
        for prefix, layer in self.layer_assign.items():
            if path.startswith(prefix) and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
        return best

    def is_sanctioned_global(self, module: str, name: str) -> bool:
        target = f"{module}.{name}"
        for pattern in self.fork_sanctioned:
            if pattern.endswith(".*"):
                if module == pattern[:-2]:
                    return True
            elif target == pattern:
                return True
        return False


def load_config(path: Path = DEFAULT_CONFIG_PATH) -> ReplintConfig:
    data = tomllib.loads(Path(path).read_bytes().decode())
    layers = data.get("layers", {})
    taint = data.get("taint", {})
    fork = data.get("forkreach", {})
    contracts = data.get("contracts", {})

    order = tuple(layers.get("order", ()))
    assign = dict(layers.get("assign", {}))
    unknown = sorted(set(assign.values()) - set(order))
    if unknown:
        raise ValueError(
            f"layers.toml assigns unknown layer(s) {unknown}; "
            "add them to layers.order"
        )
    return ReplintConfig(
        layer_order=order,
        layer_assign=assign,
        taint_sources=tuple(taint.get("sources", ())),
        taint_sanitizers=tuple(taint.get("sanitizers", ())),
        taint_sinks=tuple(taint.get("sinks", ())),
        taint_sink_fields={
            cls: tuple(fields)
            for cls, fields in taint.get("sink_fields", {}).items()
        },
        taint_strict_packages=tuple(taint.get("strict_packages", ())),
        fork_entries=tuple(fork.get("entries", ())),
        fork_entry_methods=tuple(fork.get("entry_methods", ())),
        fork_sanctioned=tuple(fork.get("sanctioned", ())),
        duck_blocklist=frozenset(fork.get("duck_blocklist", ())),
        env_module=contracts.get("env_module", "src/repro/env.py"),
        cli_module=contracts.get("cli_module", "src/repro/cli.py"),
        readme=contracts.get("readme", "README.md"),
        readme_table_begin=contracts.get(
            "readme_table_begin", "<!-- env-table:begin"
        ),
        readme_table_end=contracts.get("readme_table_end", "env-table:end -->"),
        build_files=tuple(contracts.get("build_files", ())),
        flag_allowlist=tuple(contracts.get("flag_allowlist", ())),
    )
