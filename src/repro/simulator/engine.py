"""Event scheduler for the discrete-event simulator.

The engine is a classic calendar built on :mod:`heapq`.  Events are
callables scheduled at an absolute simulated time; ties are broken by a
monotonically increasing sequence number so dispatch order is
deterministic and FIFO among same-time events.

Time is kept in *seconds* as a float.  All of the network code derives
its delays from rates and sizes, so the only requirement on the unit is
consistency; see :mod:`repro.simulator.units` for helpers.

Ordering contract
-----------------

Both scheduling calls — :meth:`Simulator.post` (relative delay) and
:meth:`~Simulator.post_at` (absolute time) — draw the next sequence
number, and every event dispatches in strict ``(time, seq)`` order,
with no exception.  That total order is what every
``fct_digest``/``interval_digest`` pins.  Nothing cancels an event: a
caller that may lose interest guards inside the callback instead (the
host's pacing wake carries a token and finds it stale).

The packet path has a third way in, the heap itself.  The two events
of a packet-hop (last bit leaves the egress, first bit reaches the far
end) are pushed by the egress ports as
``heappush(sim.heap, (time, sim.next_seq(), fn, args))``:

* ``heap`` is the calendar, a list that is only ever mutated in place,
  so a port may bind it once;
* ``next_seq`` draws the next sequence number, the same counter both
  scheduling calls draw from;
* an entry is ``(time, seq, fn, args)`` with ``now <= time < inf``.

A direct push is exactly the entry ``post_at`` would have made, minus
its check on ``time``.  The pushers take their delays from a
:class:`~repro.simulator.link.Link`, which accepts only a finite rate
> 0 and a finite propagation delay >= 0, so every ``time`` they
compute is finite and ``>= now``.  Every other caller goes through the
two checked calls, which reject a past or non-finite time (NaN
included: one NaN entry would break the heap order for every other).

State that changes on a fixed clock but is read only at a few points
need not be an event at all: :class:`~repro.simulator.dcqcn.DcqcnRp`
keeps its timers as deadlines and catches them up when the QP is
observed (DESIGN.md, engine section).

Performance notes
-----------------

Sifts inside :func:`heapq.heappush`/``heappop`` compare C-level
``(time, seq)`` prefixes (``seq`` is unique, so ``fn``/``args`` are
never compared), and the dispatch loop unpacks the popped tuple
straight into the call — no per-event object, no attribute chasing.
The hop events skip the scheduling call's Python frame too (see
above).
"""

from __future__ import annotations

import itertools
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulation engine.

    Usage::

        sim = Simulator()
        sim.post(1e-6, callback, arg1, arg2)       # relative delay
        sim.post_at(0.5, callback)                 # absolute time
        sim.run_until(1.0)

    ``now`` is the current simulated time in seconds; read it freely,
    only the engine writes it.  ``heap`` and ``next_seq`` are the
    calendar and its sequence counter, public for the packet path's
    direct pushes only (module docstring).
    """

    def __init__(self) -> None:
        self.now = 0.0
        # Heap of (time, seq, fn, args) — see module docstring.
        self.heap: list = []
        self.next_seq = itertools.count().__next__
        self._events_dispatched = 0

    @property
    def events_dispatched(self) -> int:
        """Number of events executed so far."""
        return self._events_dispatched

    @property
    def pending_events(self) -> int:
        """Events still in the heap."""
        return len(self.heap)

    def telemetry_snapshot(self) -> dict:
        """Engine health counters for the telemetry layer.

        Cheap (two attribute reads); sampled at monitor-interval
        boundaries rather than per event so the dispatch loop stays
        untouched.
        """
        return {
            "events_dispatched": self._events_dispatched,
            "heap_size": len(self.heap),
            # Nothing compacts the heap any more; the constant stays
            # only for benchmarks/perf/bodies.py, which still reports
            # simulator.compactions (ROADMAP item 6(iii) retires it).
            "compactions": 0,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule with delay {delay!r}: it must be finite and >= 0"
            )
        _heappush(self.heap, (self.now + delay, self.next_seq(), fn, args))

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute ``time``."""
        if not self.now <= time < _INF:
            raise SimulationError(
                f"cannot schedule at {time!r}: it must be finite and not "
                f"before now={self.now!r}"
            )
        _heappush(self.heap, (time, self.next_seq(), fn, args))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next event.  Returns False if none remain."""
        return self._dispatch(_INF, 1) == 1

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``end_time``.

        Returns the number of events dispatched by this call.  The clock
        is advanced to ``end_time`` on return even if the heap drained
        early, so back-to-back ``run_until`` calls see consistent time.
        ``max_events`` is a safety valve against runaway event storms.
        """
        if not end_time >= self.now:
            raise SimulationError(
                f"run_until({end_time!r}) is before now={self.now!r}"
            )
        dispatched = self._dispatch(end_time, max_events)
        if self.now < end_time:
            self.now = end_time
        return dispatched

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event heap drains (or ``max_events``)."""
        return self._dispatch(_INF, max_events)

    def _dispatch(self, end_time: float, max_events: Optional[int]) -> int:
        """The one dispatch loop behind step/run/run_until."""
        limit = -1 if max_events is None else max_events
        dispatched = 0
        # Hot loop: bind everything to locals.  ``self.heap`` is only
        # ever mutated in place, so the local alias stays valid across
        # callbacks that schedule.
        heap = self.heap
        pop = _heappop
        try:
            while heap and dispatched != limit:
                time, seq, fn, args = pop(heap)
                if time > end_time:
                    # Put it back: same (time, seq), so same place in order.
                    _heappush(heap, (time, seq, fn, args))
                    break
                self.now = time
                dispatched += 1
                fn(*args)
        finally:
            self._events_dispatched += dispatched
        return dispatched
