"""Structured run tracing: append-only JSONL span/event records.

One trace file holds interleaved records from the whole run — the main
process and every pool worker append to the same file (single-`write`
lines through an ``O_APPEND`` descriptor, so lines never shear).  Each
record carries a run id, the writing pid, and a monotonic-clock
timestamp relative to that process's emitter start.

Two record kinds:

* ``event`` — a point observation (an SA step, a KL trigger decision,
  a cache lookup);
* ``span`` — a timed region, written at *close* with its start ``ts``
  and ``dur``; nesting is tracked per thread so a span records its
  parent span id.

The emitter is **off by default** and the hot path pays one module-
attribute read plus a branch when disabled: call sites guard with
``if trace.active:``.  Enable with :func:`configure` (the CLI's
``--trace PATH``, whose default is ``REPRO_TRACE``).  Pool workers
join through :func:`repro.telemetry.apply_session`, which opens each
worker its own emitter on the parent's file and run id: its own pid,
a fresh span counter and an empty span stack, so span ids stay unique
across processes.

Record schema lives in :mod:`repro.telemetry.schema`; analysis in
:mod:`repro.telemetry.summary`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

#: Fast-path flag. Instrumentation sites read this before building any
#: attribute dict, so a disabled trace costs one attribute load + jump.
active: bool = False


class TraceEmitter:
    """Owns one open JSONL destination for this process."""

    def __init__(self, path: os.PathLike, run_id: Optional[str] = None):
        self.path = Path(path)
        self.run_id = run_id or uuid.uuid4().hex[:12]
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # Line-buffered append: each record is flushed as one write so
        # concurrent workers appending to the same file stay line-atomic.
        self._fh = open(self.path, "a", buffering=1)
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self._span_ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    # -- internals -------------------------------------------------------

    def now(self) -> float:
        """Seconds since this emitter was created (monotonic)."""
        return time.perf_counter() - self._t0

    def _write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            self._fh.write(line + "\n")

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- record emission -------------------------------------------------

    def event(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        stack = self._stack()
        self._write(
            {
                "ts": round(self.now(), 9),
                "run": self.run_id,
                "pid": self._pid,
                "kind": "event",
                "name": name,
                "parent": stack[-1] if stack else None,
                "attrs": attrs or {},
            }
        )

    @contextmanager
    def span(
        self, name: str, attrs: Optional[Dict[str, Any]] = None
    ) -> Iterator[str]:
        span_id = f"{self._pid:x}.{next(self._span_ids)}"
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.now()
        try:
            yield span_id
        finally:
            stack.pop()
            self._write(
                {
                    "ts": round(start, 9),
                    "run": self.run_id,
                    "pid": self._pid,
                    "kind": "span",
                    "name": name,
                    "span": span_id,
                    "parent": parent,
                    "dur": round(self.now() - start, 9),
                    "attrs": attrs or {},
                }
            )

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - already broken pipe etc.
            pass


_emitter: Optional[TraceEmitter] = None


# ---------------------------------------------------------------------------
# Module-level API (what instrumentation sites import)
# ---------------------------------------------------------------------------


def configure(path: os.PathLike, run_id: Optional[str] = None) -> TraceEmitter:
    """Enable tracing to ``path`` under ``run_id``; returns the emitter.

    Replaces (and closes) any emitter this process already had.
    """
    global _emitter, active
    if _emitter is not None:
        _emitter.close()
    _emitter = TraceEmitter(path, run_id=run_id)
    active = True
    return _emitter


def disable() -> None:
    """Stop tracing and close the file (safe when already off)."""
    global _emitter, active
    if _emitter is not None:
        _emitter.close()
    _emitter = None
    active = False


def current_run_id() -> Optional[str]:
    return _emitter.run_id if _emitter is not None else None


def trace_path() -> Optional[Path]:
    return _emitter.path if _emitter is not None else None


def event(name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
    """Emit a point event (no-op when tracing is disabled)."""
    em = _emitter
    if em is not None:
        em.event(name, attrs)


@contextmanager
def span(
    name: str, attrs: Optional[Dict[str, Any]] = None
) -> Iterator[Optional[str]]:
    """Timed region; yields the span id (or None when disabled)."""
    em = _emitter
    if em is None:
        yield None
        return
    with em.span(name, attrs) as span_id:
        yield span_id
