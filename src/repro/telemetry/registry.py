"""Process-local counters, fork-mergeable across pool workers.

Counters only, and only the eight something reads: the sketch packet
and round counts, SA steps and accepts, evaluations, and the executor's
pool tasks, retried chunks and worker crashes.  Every other
count the loop produces already lives on a result object and in the
JSONL trace; a new metric lands here only together with its first
reader.

A pool worker accumulates into its own process-global registry, ships
a plain-dict :meth:`MetricsRegistry.snapshot` back with its results,
and the parent adds it in with :meth:`MetricsRegistry.merge_snapshot`,
so a count totals across processes.

Mutation on the hot path is lock-free on CPython (a counter ``inc`` is
a single float add under the GIL); the registry lock only guards
counter *creation*, snapshotting and merging, which are rare.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class MetricsRegistry:
    """Name-addressed collection of counters for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name, help)
            return metric

    # -- snapshot / merge (the fork protocol) ---------------------------

    def snapshot(self, reset: bool = False) -> dict:
        """``{"counters": {name: value}}`` (JSON- and pickle-safe).

        ``reset=True`` zeroes the registry atomically with the read —
        a pool worker calls this once per chunk so each chunk's delta
        is merged into the parent exactly once.
        """
        with self._lock:
            snap = {"counters": {n: c.value for n, c in self._counters.items()}}
            if reset:
                for c in self._counters.values():
                    c._value = 0.0
            return snap

    def merge_snapshot(self, snap: Optional[dict]) -> None:
        """Add a child snapshot's counters into this registry."""
        if not snap:
            return
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)

    def reset(self) -> None:
        """Zero every registered counter in place (tests, fresh runs).

        Counters stay registered: instrumentation sites hold module-level
        references to the counter objects, so dropping them would orphan
        every call site. Zeroing preserves those references.
        """
        self.snapshot(reset=True)


#: The process-global registry every instrumentation site uses.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY
