"""The engine-mode name of a build, kept for the perf harness fingerprint.

The simulator has one engine, the packet-level DES, so the only mode is
``off``.  Nothing in :mod:`repro` imports this module: it remains
because ``benchmarks/perf/run.py::fingerprint`` records
``resolve_hybrid_mode(None)`` in every result set.
"""

from __future__ import annotations

from typing import Optional


def resolve_hybrid_mode(mode: Optional[str] = None) -> str:
    """``"off"`` for ``None`` or ``"off"``; any other mode raises."""
    if mode is None or mode == "off":
        return "off"
    raise ValueError(f"the only engine mode is 'off', got {mode!r}")
