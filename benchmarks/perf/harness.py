"""Measurement plumbing shared by the four workloads.

Nothing here imports ``repro``; it is the benchmark's own clock,
calibration, span tracer, ledger and run loop.

* :class:`Probe` — what a workload body is handed.  Its clock *stops*
  while the calibration kernel runs, so calibration never shows up in
  a wall time, a span or a ledger.
* :func:`measure` — set-up (repeated), warm-up, then bodies for
  ``--seconds``; returns the raw per-body samples.
* statistics helpers shared with ``run.py`` and ``compare.py``.

Why a calibration.  On the shared 2-vCPU box this benchmark is
developed and judged on, the *same* pure-Python body drifts by
20-50 % for tens of seconds at a time, and process CPU time drifts
with it: the core is slower (a busy hyperthread sibling), the process
is not descheduled.  Medians within a run cannot average out a drift
that outlasts the run.  The probe therefore interleaves a fixed
pure-Python kernel (heap pushes/pops, attribute writes, float adds —
the DES's instruction mix) at ~8 % duty and scales every measured
time by ``REF_UNIT_S / measured unit time``: times are reported in
*reference seconds*, i.e. seconds on this box when it is quiet.  The
kernel belongs to the benchmark, not the program, so a change under
``src/`` moves the metrics one-for-one.  Measured effect on the
run-level spread (IQR/median over groups of ten bodies): DES body
0.28 -> 0.07 in a contended stretch, 0.038 -> 0.015 in a quiet one;
monitor body 0.11 -> 0.005.  Raw seconds and the factor are kept in
every result record.
"""

from __future__ import annotations

import contextlib
import heapq
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Seconds one calibration unit takes on the reference box (2-vCPU
#: Xeon @ 2.1 GHz, CPython 3.11) when its hyperthread sibling is idle.
REF_UNIT_S = 0.0015
#: Share of elapsed time the probe may spend calibrating.
CALIBRATION_DUTY = 0.08
#: Units per tick are capped so one long gap cannot stall a body.
MAX_UNITS_PER_TICK = 8
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class _Cell:
    __slots__ = ("hits", "level")

    def __init__(self) -> None:
        self.hits = 0
        self.level = 1.0


def calibration_unit(ops: int = 4000) -> int:
    """The fixed kernel: ~1.5 ms of heap, attribute and float work."""
    heap: list = []
    cell = _Cell()
    push, pop = heapq.heappush, heapq.heappop
    t = 0.0
    for i in range(ops):
        t += 1e-6 * ((i * 7919) % 13)
        push(heap, (t, i, cell))
        if i & 1:
            entry = pop(heap)
            entry[2].hits += 1
            cell.level = cell.level * 1.0000001 + entry[0]
    return cell.hits


#: (span id, parent id or -1, body id, name, start, end), probe clock.
Span = Tuple[int, int, int, str, float, float]


class Probe:
    """Clock + calibration + span tracer for workload bodies.

    ``tracing`` is flipped per body by :func:`measure`; bodies build
    their objects afresh each time, so :meth:`wrap` simply does nothing
    for an untraced body.
    """

    def __init__(self) -> None:
        self.tracing = False
        self.cal_spent = 0.0
        self.cal_units = 0
        self._budget = 0.0
        self._last_tick = time.perf_counter()
        self.spans: List[Span] = []
        self.body_id = -1
        self._stack: List[int] = []

    # -- clock and calibration -------------------------------------------

    def now(self) -> float:
        """Host seconds with calibration time removed."""
        return time.perf_counter() - self.cal_spent

    def burst(self, units: int) -> None:
        """Run ``units`` calibration units now."""
        start = time.perf_counter()
        for _ in range(units):
            calibration_unit()
        self._last_tick = time.perf_counter()
        self.cal_spent += self._last_tick - start
        self.cal_units += units

    def tick(self) -> None:
        """Spend the calibration budget accrued since the last tick."""
        now = time.perf_counter()
        self._budget += CALIBRATION_DUTY * (now - self._last_tick)
        self._last_tick = now
        unit_s = self.cal_spent / self.cal_units if self.cal_units else REF_UNIT_S
        units = min(int(self._budget / unit_s), MAX_UNITS_PER_TICK)
        if units:
            self.burst(units)
            self._budget = max(0.0, self._budget - units * unit_s)

    def calibration_mark(self) -> Tuple[float, int]:
        return self.cal_spent, self.cal_units

    def factor_since(self, mark: Tuple[float, int]) -> float:
        """Reference seconds per measured second since ``mark``.

        Falls back to the whole-run factor when no unit ran in the
        window (a body shorter than one calibration period).
        """
        spent = self.cal_spent - mark[0]
        units = self.cal_units - mark[1]
        if units == 0:
            spent, units = self.cal_spent, self.cal_units
        return REF_UNIT_S * units / spent if units else 1.0

    # -- spans -----------------------------------------------------------

    def begin_body(self, tracing: bool) -> None:
        self.tracing = tracing
        self.body_id += 1
        self._stack.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the block (nothing when not tracing)."""
        if not self.tracing:
            yield
            return
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = self.now()
        try:
            yield
        finally:
            end = self.now()
            self._stack.pop()
            self.spans.append((span_id, parent, self.body_id, name, start, end))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, obj: object, attr: str, name: str, always: bool = False) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        Instance-level only: the class and every other instance stay
        untouched, which is what lets the benchmark time a layer's
        public methods from outside without editing ``src/``.  An
        untraced body gets no wrapper at all, unless ``always`` — for
        an object that outlives one body, whose wrapper then records
        only while a traced body runs.
        """
        if not (self.tracing or always):
            return
        fn = getattr(obj, attr)
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        setattr(obj, attr, traced)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


def ledger(spans: Sequence[Span], body_id: int) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total`` and ``self`` seconds of one body.

    Self time is a span's duration minus its direct children's, so the
    self times of a body's spans sum to the root span's duration.
    """
    body = [s for s in spans if s[2] == body_id]
    child_time: Dict[int, float] = {}
    for _id, parent, _body, _name, start, end in body:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: Dict[str, Dict[str, float]] = {}
    for span_id, _parent, _body, name, start, end in body:
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += (end - start) - child_time.get(span_id, 0.0)
    return out


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """IQR as a share of the median (0 for fewer than two samples)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


class Stat(NamedTuple):
    """A metric as printed: median, quartiles and sample count."""

    value: float
    q1: float
    q3: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Stat":
        q1, q2, q3 = quartiles(values)
        return cls(q2, q1, q3, len(values))

    @classmethod
    def single(cls, value: float) -> "Stat":
        return cls(value, value, value, 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` of this process (+ its largest reaped child), in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# The measurement loop
# ---------------------------------------------------------------------------


@dataclass
class BodyOutcome:
    """What one body hands back (probe-clock seconds throughout)."""

    work: float                     # hops / packets / evaluations done
    quality: float                  # simulated: utility or FSD accuracy
    digest: str                     # must repeat across bodies of a run
    attempted: int
    failed: int
    decisions: List[float]          # one sample per monitor interval
    counts: Dict[str, float]        # per-layer counts that repeat exactly
    #: Seconds the work took when that is not the whole body (cp-day:
    #: shift -> retune); None means the body wall.
    work_window: Optional[float] = None
    #: Per-layer values that do not repeat (seconds, steal counts).
    measured: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)  # failed output checks


@dataclass
class BodySample:
    outcome: BodyOutcome
    wall: float                     # probe-clock seconds
    factor: float                   # reference s per measured s
    traced: bool
    body_id: int


def run_body(workload, probe: Probe, tracing: bool = False) -> BodySample:
    probe.begin_body(tracing)
    mark = probe.calibration_mark()
    start = probe.now()
    with probe.span("bench.body"):
        outcome = workload.body(probe)
    wall = probe.now() - start
    return BodySample(
        outcome, wall, probe.factor_since(mark), tracing, probe.body_id
    )


def measure(workload, probe: Probe, seconds: float, trace: bool):
    """Set up, warm up, then run bodies for ``seconds``.

    Returns ``(setup_ref, samples)``: the reference seconds of each
    set-up (construction + one warm-up body) and the timed bodies.
    With ``trace`` the bodies alternate untraced/traced, so the tracing
    overhead is measured inside the same run and under the same drift.
    """
    setup_ref: List[float] = []
    for repeat in range(1 if trace else SETUP_REPEATS):
        if repeat:
            workload.teardown()
        mark = probe.calibration_mark()
        start = probe.now()
        workload.setup(probe)
        run_body(workload, probe)
        setup_ref.append((probe.now() - start) * probe.factor_since(mark))

    samples: List[BodySample] = []
    deadline = time.perf_counter() + seconds
    # At least two bodies of each kind, so digests can be compared.
    while time.perf_counter() < deadline or len(samples) < (4 if trace else 2):
        samples.append(
            run_body(workload, probe, tracing=trace and len(samples) % 2 == 1)
        )
    return setup_ref, samples
