"""RL001 unseeded-rng and RL002 wall-clock: the bit-stability checks.

Run digests (``fct_digest`` / ``interval_digest``) are SHA-256 over
simulation output streams; they only replay if every random draw flows
from a task seed and no simulated-path value ever depends on the host
clock.  These two checks make both rules static.

Both are pure per-file rules: ``extract`` computes the finding sites,
``file_findings`` applies the allowlist and reports them.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from tools.replint.checks._util import (
    dotted_name,
    from_imports,
    path_matches,
    resolve_call,
)
from tools.replint.core import Check, FileContext, Finding

#: Packages whose code runs inside a simulated/evaluated path and must
#: therefore draw randomness only from seeded generators.
DETERMINISTIC_PACKAGES: Tuple[str, ...] = (
    "repro/simulator/",
    "repro/tuning/",
    "repro/monitor/",
    "repro/sketch/",
    "repro/workloads/",
)

#: ``random.Random(seed)`` / ``np.random.default_rng(seed)`` style
#: constructors are the *approved* entry points — seeded construction
#: is exactly how randomness is supposed to enter.  Called with no
#: arguments they seed from the OS, which is the violation.
_SEEDED_CONSTRUCTORS = {
    "random.Random",
    "np.random.default_rng",
    "numpy.random.default_rng",
    "np.random.Generator",
    "numpy.random.Generator",
    "np.random.SeedSequence",
    "numpy.random.SeedSequence",
    "np.random.RandomState",
    "numpy.random.RandomState",
    "np.random.PCG64",
    "numpy.random.PCG64",
}

_RNG_MODULE_PREFIXES = ("random.", "np.random.", "numpy.random.")

#: Wall-clock callables that leak host time into whatever consumes
#: their return value.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
}

#: Files allowed to read the host clock: the CLI (reports wall time to
#: the user), the trace emitter (timestamps telemetry, never results),
#: the task shim (measures evaluation wall-seconds for metrics), and
#: the worker pool (dispatch deadlines and straggler detection — wall
#: time never reaches a simulated path).
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = (
    "repro/cli.py",
    "repro/telemetry/trace.py",
    "repro/parallel/tasks.py",
    "repro/parallel/pool.py",
)


class UnseededRngCheck(Check):
    id = "RL001"
    name = "unseeded-rng"
    description = (
        "module-level random.* / np.random.* calls in deterministic "
        "packages; randomness must flow from a seeded Random/Generator"
    )

    def extract(self, ctx: FileContext) -> List:
        if not any(pkg in ctx.relpath for pkg in DETERMINISTIC_PACKAGES):
            return []
        sites: List = []
        imports = from_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node, imports)
            if target is None:
                continue
            if target in _SEEDED_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    sites.append(
                        [
                            node.lineno,
                            f"{target}() without a seed draws OS entropy; "
                            "pass an explicit seed",
                        ]
                    )
                continue
            if target.startswith(_RNG_MODULE_PREFIXES):
                sites.append(
                    [
                        node.lineno,
                        f"module-level RNG call {target}() shares global "
                        "state; draw from a seeded Random/Generator instance",
                    ]
                )
        return sites

    def file_findings(self, relpath: str, facts) -> Iterable[Finding]:
        for line, message in facts or ():
            yield self.finding(relpath, line, message)


class WallClockCheck(Check):
    id = "RL002"
    name = "wall-clock"
    description = (
        "host-clock reads (time.time/perf_counter/datetime.now) outside "
        "the timing-shim allowlist"
    )

    def __init__(self, allowlist: Tuple[str, ...] = WALL_CLOCK_ALLOWLIST):
        self.allowlist = allowlist

    def extract(self, ctx: FileContext) -> List:
        sites: List = []
        imports = from_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node, imports)
            if target in _WALL_CLOCK_CALLS or (
                target is not None
                and dotted_name(node.func) in _WALL_CLOCK_CALLS
            ):
                sites.append(
                    [
                        node.lineno,
                        f"wall-clock read {target}() outside the timing "
                        "allowlist; simulated paths must not observe "
                        "host time",
                    ]
                )
        return sites

    def file_findings(self, relpath: str, facts) -> Iterable[Finding]:
        # The allowlist is applied at report time, not extract time, so
        # extract stays a pure function of the file.
        if path_matches(relpath, self.allowlist):
            return
        for line, message in facts or ():
            yield self.finding(relpath, line, message)
