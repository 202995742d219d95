"""RL010 fork reachability: interprocedural upgrade of RL005.

RL005 flags module-level mutable containers in ``repro/parallel/``;
this pass follows the call graph instead of the package boundary.  It
computes the closure of code reachable from the worker child entry
points (``layers.toml [forkreach]``: today ``_worker_main`` alone) and
flags, inside that closure:

* any **write/mutation** of a module-level mutable container — after
  fork that state diverges per process, and the parent never sees it;
* any **read** of a module-level mutable that some function body also
  mutates — reads of import-time constant tables are fine, reads of
  runtime-mutated state observe whichever process mutated last.

State workers touch *by design* (the telemetry registry reset at
worker startup, the packet free-list) is sanctioned in
``layers.toml`` with a rationale next to each entry.

The pass itself is one BFS over already-extracted facts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from tools.replint.config import ReplintConfig, load_config
from tools.replint.core import Check, Finding, ProjectIndex


class ForkReachabilityCheck(Check):
    id = "RL010"
    name = "fork-reachability"
    description = (
        "module-level mutable state read/written by code reachable "
        "from worker entry points (outside sanctioned paths)"
    )

    def __init__(self, config: Optional[ReplintConfig] = None):
        self._config = config

    @property
    def config(self) -> ReplintConfig:
        if self._config is None:
            self._config = load_config()
        return self._config

    def finalize(self, project: ProjectIndex) -> List[Finding]:
        config = self.config
        graph = project.graph

        entries: Set[str] = set(config.fork_entries)
        for method in config.fork_entry_methods:
            entries.update(graph.methods_named(method))
        if not entries:
            return []
        reachable = graph.reachable_defs(
            entries, duck_blocklist=config.duck_blocklist
        )

        # Globals some function body mutates, anywhere in the program:
        # reads of these observe fork-divergent state.
        runtime_mutated: Set[Tuple[str, str]] = set()
        for mod, (_, facts) in graph.modules.items():
            for _qual, writes in facts["global_writes"].items():
                for name, _line, _how in writes:
                    runtime_mutated.add((mod, name))

        found: Dict[Tuple[str, int, str], Finding] = {}
        for fq in sorted(reachable):
            owner = graph.owner_of(fq)
            if owner is None:
                continue
            mod, qual = owner
            relpath, facts = graph.modules[mod]
            written_here = set()
            for name, line, how in facts["global_writes"].get(qual, ()):
                written_here.add(name)
                if config.is_sanctioned_global(mod, name):
                    continue
                finding = self.finding(
                    relpath,
                    line,
                    f"{qual} is reachable from a worker entry point and "
                    f"mutates module-level {name!r} ({how}); state "
                    "diverges per forked process — pass it explicitly "
                    "or sanction it in layers.toml",
                )
                found[(relpath, line, finding.message)] = finding
            for name, line in facts["global_reads"].get(qual, ()):
                if name in written_here:
                    continue  # already flagged as a mutation above
                if (mod, name) not in runtime_mutated:
                    continue  # import-time constant table: safe
                if config.is_sanctioned_global(mod, name):
                    continue
                finding = self.finding(
                    relpath,
                    line,
                    f"{qual} is reachable from a worker entry point and "
                    f"reads module-level {name!r}, which is mutated at "
                    "runtime; forked workers may observe divergent state",
                )
                found[(relpath, line, finding.message)] = finding
        return [found[key] for key in sorted(found)]
