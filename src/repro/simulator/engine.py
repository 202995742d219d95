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

Every scheduling call — :meth:`Simulator.schedule`, :meth:`~Simulator.at`,
:meth:`~Simulator.post`, :meth:`~Simulator.post_at` — draws the next
sequence number, and events dispatch in strict ``(time, seq)`` order.
That total order is what every ``fct_digest``/``interval_digest`` pins,
so the four calls differ only in what they hand back:

* ``schedule``/``at`` return an :class:`EventHandle` for events that
  something may cancel (the host wake timer).
* ``post``/``post_at`` are fire-and-forget: same ordering, no handle,
  no way to cancel.  A caller that may lose interest guards inside the
  callback instead (see the deadline guards in
  :class:`~repro.simulator.dcqcn.DcqcnRp`).
* :meth:`~Simulator.coalesce_at` lets callbacks that share an *exact*
  float deadline ride one heap entry, created by (and ordered as) the
  first of them; members run in arrival order.  A member therefore
  runs no later than it would have on its own entry, ahead only of
  events with the identical timestamp scheduled in between — sound
  for callbacks that commute with those (DESIGN.md, engine section).

Performance notes
-----------------

The heap stores ``(time, seq, fn, args, handle-or-None)`` tuples.
Sifts inside :func:`heapq.heappush`/``heappop`` compare C-level
``(time, seq)`` prefixes (``seq`` is unique, so later fields are never
compared), and the dispatch loop unpacks the popped tuple straight
into the call — no per-event object, no attribute chasing.  Only the
cancellable calls allocate an :class:`EventHandle`; on the packet
path (two link events per hop, PFC signals, RP timers) nothing does.

Cancellation stays lazy (O(1)): the entry is skipped when popped, the
engine counts cancelled entries still parked in the heap and compacts
— an in-place filter plus :func:`heapq.heapify` — once they are the
majority.  A handle is detached when its event is dispatched, so a
late ``cancel()`` on a timer that already fired is a no-op and
``cancelled_pending`` always equals the number of cancelled entries
actually in the heap.  Compaction preserves dispatch order exactly:
``(time, seq)`` is unique per event, so heapify rebuilds the same
total order the lazy heap would have produced.
"""

from __future__ import annotations

import heapq
import itertools
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Dict, List, Optional

#: Compact the heap once more than this many cancelled entries are
#: parked in it *and* they outnumber the live ones (>50% cancelled).
_COMPACT_MIN_CANCELLED = 64


class EventHandle:
    """Handle to a scheduled event, usable for cancellation.

    Cancellation is lazy: the entry stays in the heap but is skipped at
    dispatch time.  This keeps cancellation O(1); the owning simulator
    counts cancellations and compacts the heap when they dominate.
    ``sim`` is the heap the entry is parked in and is cleared once the
    entry leaves it (dispatched or cancelled).
    """

    __slots__ = ("time", "cancelled", "sim")

    def __init__(self, time: float, sim: "Simulator"):
        self.time = time
        self.cancelled = False
        self.sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Mark the event so the engine skips it at dispatch time."""
        sim = self.sim
        if sim is not None:
            self.sim = None
            self.cancelled = True
            sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self.cancelled
            else "pending" if self.sim is not None else "fired"
        )
        return f"EventHandle(t={self.time:.9f}, {state})"


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulation engine.

    Usage::

        sim = Simulator()
        sim.post(1e-6, callback, arg1, arg2)       # relative delay
        sim.post_at(0.5, callback)                 # absolute time
        wake = sim.schedule(2e-6, callback)        # cancellable
        wake.cancel()
        sim.run_until(1.0)

    ``now`` is the current simulated time in seconds; read it freely,
    only the engine writes it.
    """

    def __init__(self) -> None:
        self.now = 0.0
        # Heap of (time, seq, fn, args, handle|None) — see module docstring.
        self._heap: list = []
        self._seq = itertools.count()
        self._next_seq = self._seq.__next__
        # Pending coalesce_at() deadlines: exact time -> callbacks.
        self._batches: Dict[float, List[Callable[[], Any]]] = {}
        self._events_dispatched = 0
        self._cancelled = 0
        self._compactions = 0
        self._running = False

    @property
    def events_dispatched(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_dispatched

    @property
    def pending_events(self) -> int:
        """Events still in the heap, including lazily cancelled ones."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still parked in the heap."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Heap compaction passes performed so far."""
        return self._compactions

    def telemetry_snapshot(self) -> dict:
        """Engine health counters for the telemetry layer.

        Cheap (four attribute reads); sampled at monitor-interval
        boundaries rather than per event so the dispatch loop stays
        untouched.
        """
        return {
            "events_dispatched": self._events_dispatched,
            "heap_size": len(self._heap),
            "cancelled_pending": self._cancelled,
            "compactions": self._compactions,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now; not cancellable."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        _heappush(self._heap, (self.now + delay, self._next_seq(), fn, args, None))

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute ``time``; not cancellable."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, which is before now={self.now!r}"
            )
        _heappush(self._heap, (time, self._next_seq(), fn, args, None))

    def coalesce_at(self, time: float, fn: Callable[[], Any]) -> None:
        """Run ``fn()`` at ``time`` on a heap entry shared by deadline.

        The first callback posted for an exact ``time`` creates the
        entry (and fixes its place in the ``(time, seq)`` order); later
        ones for the same float join it and run after it, in arrival
        order.  Not cancellable.  See the module docstring for what
        that does to ordering.
        """
        batch = self._batches.get(time)
        if batch is None:
            self._batches[time] = [fn]
            self.post_at(time, self._run_batch, time)
        else:
            batch.append(fn)

    def _run_batch(self, time: float) -> None:
        # Popped first: a callback re-arming for this same instant
        # starts a fresh batch behind everything already scheduled.
        for fn in self._batches.pop(time):
            fn()

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Like :meth:`post`, returning a handle that can cancel the event."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        return self._push_handle(self.now + delay, fn, args)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Like :meth:`post_at`, returning a handle that can cancel the event."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, which is before now={self.now!r}"
            )
        return self._push_handle(time, fn, args)

    def _push_handle(self, time: float, fn: Callable[..., Any], args: tuple) -> EventHandle:
        handle = EventHandle(time, self)
        _heappush(self._heap, (time, self._next_seq(), fn, args, handle))
        # Cancelled entries only come from handles, and whoever cancels
        # re-arms through here, so this is the one push that checks.
        if self._cancelled > _COMPACT_MIN_CANCELLED:
            self._maybe_compact()
        return handle

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][4] is not None and heap[0][4].cancelled:
            _heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Dispatch the next event.  Returns False if none remain."""
        return self._dispatch(float("inf"), 1) == 1

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``end_time``.

        Returns the number of events dispatched by this call.  The clock
        is advanced to ``end_time`` on return even if the heap drained
        early, so back-to-back ``run_until`` calls see consistent time.
        ``max_events`` is a safety valve against runaway event storms.
        """
        if end_time < self.now:
            raise SimulationError(
                f"run_until({end_time!r}) is before now={self.now!r}"
            )
        dispatched = self._dispatch(end_time, max_events)
        if self.now < end_time:
            self.now = end_time
        return dispatched

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event heap drains (or ``max_events``)."""
        return self._dispatch(float("inf"), max_events)

    def _dispatch(self, end_time: float, max_events: Optional[int]) -> int:
        """The one dispatch loop behind step/run/run_until.

        A cancel-dominated backlog is compacted as its dead entries
        surface, so a drain with no scheduling calls of its own does
        not pop them one by one.
        """
        limit = -1 if max_events is None else max_events
        dispatched = 0
        # Hot loop: bind everything to locals.  ``self._heap`` is only
        # ever mutated in place (push/pop/compact), so the local alias
        # stays valid across callbacks that schedule or cancel.
        heap = self._heap
        pop = _heappop
        was_running, self._running = self._running, True
        try:
            while heap and dispatched != limit:
                time, seq, fn, args, handle = pop(heap)
                if time > end_time:
                    # Put it back: same (time, seq), so same place in order.
                    _heappush(heap, (time, seq, fn, args, handle))
                    break
                if handle is not None:
                    if handle.cancelled:
                        self._cancelled -= 1
                        if self._cancelled > _COMPACT_MIN_CANCELLED:
                            self._maybe_compact()
                        continue
                    handle.sim = None  # fired: a late cancel() is a no-op
                self.now = time
                dispatched += 1
                fn(*args)
        finally:
            self._running = was_running
            self._events_dispatched += dispatched
        return dispatched

    def _maybe_compact(self) -> None:
        """Rebuild the heap in place once cancelled entries dominate."""
        heap = self._heap
        if self._cancelled * 2 < len(heap):
            return
        # In-place so aliases held by a running dispatch loop stay live.
        heap[:] = [e for e in heap if e[4] is None or not e[4].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1
