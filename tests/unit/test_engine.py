"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.simulator.engine import (
    _COMPACT_MIN_CANCELLED,
    SimulationError,
    Simulator,
)


def test_time_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.events_dispatched == 0


def test_schedule_and_run_until(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(0.5, fired.append, "b")
    sim.run_until(2.0)
    assert fired == ["b", "a"]
    assert sim.now == 2.0


def test_run_until_advances_clock_even_without_events(sim):
    sim.run_until(3.5)
    assert sim.now == 3.5


def test_same_time_events_dispatch_fifo(sim):
    fired = []
    for tag in range(5):
        sim.at(1.0, fired.append, tag)
    sim.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]


def test_events_scheduled_during_dispatch_run_in_order(sim):
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run_until(1.0)
    assert fired == ["outer", "inner"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1e-9, lambda: None)


def test_scheduling_in_the_past_rejected(sim):
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)


def test_run_until_backwards_rejected(sim):
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.run_until(0.5)


def test_cancelled_events_do_not_fire(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run_until(2.0)
    assert fired == []
    assert sim.events_dispatched == 0


def test_cancel_is_idempotent(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_run_until_boundary_inclusive(sim):
    fired = []
    sim.at(1.0, fired.append, "edge")
    sim.run_until(1.0)
    assert fired == ["edge"]


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_step_executes_single_event(sim):
    fired = []
    sim.schedule(0.25, fired.append, 1)
    sim.schedule(0.75, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.now == 0.25


def test_run_drains_heap(sim):
    fired = []
    for i in range(10):
        sim.schedule(i * 0.1, fired.append, i)
    count = sim.run()
    assert count == 10
    assert fired == list(range(10))


def test_run_respects_max_events(sim):
    for i in range(10):
        sim.schedule(i * 0.1, lambda: None)
    assert sim.run(max_events=3) == 3
    assert sim.pending_events == 7


def test_peek_time_skips_cancelled(sim):
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.peek_time() == pytest.approx(2.0)


def test_peek_time_empty(sim):
    assert sim.peek_time() is None


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
def test_dispatch_order_is_nondecreasing(delays):
    """Property: events always fire in non-decreasing time order."""
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=30
    ),
    cancel_index=st.integers(min_value=0, max_value=29),
)
def test_cancellation_only_removes_target(delays, cancel_index):
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(delay, fired.append, i) for i, delay in enumerate(delays)
    ]
    cancel_index %= len(handles)
    handles[cancel_index].cancel()
    sim.run()
    assert cancel_index not in fired
    assert len(fired) == len(delays) - 1


# ---------------------------------------------------------------------------
# Heap compaction (lazy-cancellation memory bound)
# ---------------------------------------------------------------------------


def test_compaction_shrinks_pending_events(sim):
    """Cancelling most of a large heap must reclaim the entries well
    before their scheduled times arrive (the seed engine kept them all).
    """
    handles = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(1000)]
    assert sim.pending_events == 1000
    for handle in handles[:-1]:
        handle.cancel()
    # Compaction triggers on the next schedule once cancelled entries
    # are both numerous (>64) and the majority of the heap.
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    assert sim.cancelled_pending == 0


def test_compaction_preserves_dispatch_order(sim):
    fired = []
    keep = []
    for i in range(500):
        h = sim.schedule(1.0 + (i % 7) * 0.1, fired.append, i)
        if i % 5 == 0:
            keep.append((i, h))
        else:
            h.cancel()
    sim.schedule(3.0, fired.append, "last")  # triggers compaction
    sim.run_until(4.0)
    expected = [i for i, _ in sorted(
        keep, key=lambda pair: (1.0 + (pair[0] % 7) * 0.1, pair[0])
    )] + ["last"]
    assert fired == expected


def test_cancelled_pending_counter_tracks_heap(sim):
    h1 = sim.schedule(1.0, lambda: None)
    h2 = sim.schedule(2.0, lambda: None)
    assert sim.cancelled_pending == 0
    h1.cancel()
    h2.cancel()
    assert sim.cancelled_pending == 2
    sim.run_until(3.0)
    assert sim.cancelled_pending == 0
    assert sim.pending_events == 0


def test_memory_stays_bounded_under_cancel_rearm_churn(sim):
    """The host egress wake-timer pattern: cancel + re-arm forever.

    With lazy cancellation alone the heap grows by one dead entry per
    iteration; compaction must keep it within a constant factor.
    """
    timer = sim.schedule(1.0, lambda: None)
    for _ in range(10_000):
        timer.cancel()
        timer = sim.schedule(1.0, lambda: None)
    assert sim.pending_events <= 2 * _COMPACT_MIN_CANCELLED + 2


# ---------------------------------------------------------------------------
# Property: ordering survives interleaved cancellation / re-scheduling
# ---------------------------------------------------------------------------


@st.composite
def _op_sequences(draw):
    """Interleaved schedule / cancel / reschedule operation scripts."""
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["schedule", "cancel", "reschedule"]))
        delay = draw(
            st.floats(min_value=0.0, max_value=5.0).map(lambda x: round(x, 2))
        )
        target = draw(st.integers(min_value=0, max_value=200))
        ops.append((kind, delay, target))
    return ops


@given(ops=_op_sequences())
def test_dispatch_nondecreasing_fifo_under_churn(ops):
    """Property (engine contract): whatever mix of scheduling,
    cancellation and re-scheduling happens, dispatched events are
    non-decreasing in time, FIFO among equal times (by schedule seq),
    and cancelled events never fire.
    """
    sim = Simulator()
    fired = []  # (time, seq) at dispatch
    live = {}   # tag -> (handle, seq)
    seqs = {}

    def fire(seq):
        fired.append((sim.now, seq))

    next_seq = 0
    expected_live = set()
    for kind, delay, target in ops:
        if kind == "cancel" and target in live:
            handle, seq = live.pop(target)
            handle.cancel()
            expected_live.discard(seq)
            continue
        if kind == "reschedule" and target in live:
            handle, seq = live.pop(target)
            handle.cancel()
            expected_live.discard(seq)
        seq = next_seq
        next_seq += 1
        handle = sim.schedule(delay, fire, seq)
        live[target] = (handle, seq)
        seqs[seq] = sim.now + delay
        expected_live.add(seq)

    sim.run()

    times = [t for t, _ in fired]
    assert times == sorted(times), "dispatch must be non-decreasing in time"
    # FIFO among ties: for equal times, schedule order (seq) decides.
    for (t1, s1), (t2, s2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert s1 < s2, "same-time events must dispatch FIFO"
    assert {s for _, s in fired} == expected_live
    for t, s in fired:
        assert t == pytest.approx(seqs[s])


# ---------------------------------------------------------------------------
# run(): cancelled-entry bookkeeping and compaction on the drain path
# ---------------------------------------------------------------------------


def test_run_decrements_cancelled_counter(sim):
    handles = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(10)]
    for handle in handles[:7]:
        handle.cancel()
    assert sim.cancelled_pending == 7
    dispatched = sim.run()
    assert dispatched == 3
    assert sim.cancelled_pending == 0
    assert sim.pending_events == 0


def test_run_compacts_cancelled_backlog(sim):
    """Draining via run() must compact a cancel-dominated heap instead
    of popping dead entries one at a time (the seed's step() loop never
    compacted on this path).
    """
    live = []
    handles = [
        sim.schedule(10.0 + i * 1e-6, live.append, i) for i in range(1000)
    ]
    for handle in handles[:-1]:
        handle.cancel()
    sim.run(max_events=1)
    assert live == [999]
    assert sim.cancelled_pending == 0
    assert sim.pending_events == 0
    assert sim.compactions >= 1


def test_run_and_run_until_agree_on_events_dispatched(sim):
    for i in range(20):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run_until(1.0)
    base = sim.events_dispatched
    sim.run()
    assert sim.events_dispatched == base + 10


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=5.0).map(lambda x: round(x, 2)),
        min_size=1,
        max_size=60,
    ),
    cancel_mod=st.integers(min_value=2, max_value=5),
)
def test_run_matches_run_until_under_cancellation(delays, cancel_mod):
    """Property: run() and run_until(∞) dispatch the identical event
    sequence with identical bookkeeping, whatever mix of cancellations
    is parked in the heap.
    """
    def build():
        s = Simulator()
        fired = []
        for i, delay in enumerate(delays):
            h = s.schedule(delay, fired.append, i)
            if i % cancel_mod == 0:
                h.cancel()
        return s, fired

    sim_a, fired_a = build()
    sim_b, fired_b = build()
    sim_a.run()
    sim_b.run_until(10.0)
    assert fired_a == fired_b
    assert sim_a.events_dispatched == sim_b.events_dispatched
    assert sim_a.cancelled_pending == sim_b.cancelled_pending == 0
    assert sim_a.pending_events == sim_b.pending_events == 0


# ---------------------------------------------------------------------------
# Handle-free events, detached handles
# ---------------------------------------------------------------------------


def test_post_and_schedule_share_one_fifo_order(sim):
    """post/post_at/schedule/at all draw from the same seq counter."""
    fired = []
    sim.post(1.0, fired.append, "post")
    sim.schedule(1.0, fired.append, "schedule")
    sim.post_at(1.0, fired.append, "post_at")
    sim.at(1.0, fired.append, "at")
    sim.run()
    assert fired == ["post", "schedule", "post_at", "at"]


def test_post_rejects_the_past(sim):
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.post(-1e-9, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_at(0.5, lambda: None)


def test_late_cancel_of_a_fired_handle_is_a_noop(sim):
    """Regression: a self-re-arming timer that cancels the handle that
    just fired (the old ``DcqcnRp._arm_*_timer`` pattern) used to bump
    ``cancelled_pending`` once per tick for an entry no longer in the
    heap — 50 ticks left 49 phantom cancellations on an empty heap and
    sent every later ``schedule()`` into a pointless compaction check.
    """
    state = {"handle": None, "ticks": 0}

    def tick():
        state["ticks"] += 1
        state["handle"].cancel()          # already fired: must not count
        if state["ticks"] < 50:
            state["handle"] = sim.schedule(1e-6, tick)

    state["handle"] = sim.schedule(1e-6, tick)
    sim.run()
    assert state["ticks"] == 50
    assert sim.pending_events == 0
    assert sim.cancelled_pending == 0
    assert sim.compactions == 0
    assert not state["handle"].cancelled


# -- model-based property test ----------------------------------------------


class _ReferenceCalendar:
    """Sorted-list oracle for the engine's ``(time, seq)`` contract."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []     # (time, seq, tag)

    def push(self, time, tag):
        self.entries.append((time, self.seq, tag))
        self.seq += 1

    def cancel(self, tag):
        self.entries = [e for e in self.entries if e[2] != tag]

    def pop_due(self, end_time):
        """Tag of the next entry due by ``end_time`` (None if none)."""
        if not self.entries or min(self.entries)[0] > end_time:
            return None
        entry = min(self.entries)
        self.entries.remove(entry)
        self.now, _, tag = entry
        return tag


_TIMES = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["schedule", "at", "post", "post_at"]),
            _TIMES,
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("run_until"), _TIMES),
        st.tuples(st.just("step"), st.just(0.0)),
    ),
    min_size=1,
    max_size=60,
)


def _cancelled_in_heap(sim):
    return sum(1 for e in sim.heap if e[4] is not None and e[4].cancelled)


def _execute(ops, drain, compact_min=_COMPACT_MIN_CANCELLED):
    """Run an op program; returns the ``(time, tag)`` dispatch sequence.

    ``drain="oracle"`` single-steps the engine in lock-step with the
    sorted-list oracle and checks every dispatch against it; the other
    drains (``step``/``run``/``run_until``) use the engine natively.
    Every third event re-arms itself once when it fires and every
    fourth cancels some handle (late, if that one already fired), so
    scheduling and cancellation also happen mid-dispatch.  The
    ``cancelled_pending`` invariant is asserted after every op and
    inside every callback.
    """
    from repro.simulator import engine as engine_module

    sim = Simulator()
    ref = _ReferenceCalendar() if drain == "oracle" else None
    fired, handles = [], {}
    tags = iter(range(10_000))

    def invariant():
        assert sim.cancelled_pending == _cancelled_in_heap(sim)

    def add(kind, time, nested=False):
        tag = next(tags)
        time = max(time, sim.now)
        delay = time - sim.now

        def fn():
            fired.append((sim.now, tag))
            invariant()
            if not nested and tag % 3 == 0:
                add("schedule" if tag % 2 else "post_at", sim.now + 0.25, True)
            if tag % 4 == 0:
                cancel(tag)

        if kind == "schedule":
            handles[tag] = sim.schedule(delay, fn)
        elif kind == "at":
            handles[tag] = sim.at(time, fn)
        elif kind == "post":
            sim.post(delay, fn)
        else:
            sim.post_at(time, fn)
        if ref is not None:
            ref.push(sim.now + delay if kind in ("schedule", "post") else time, tag)

    def cancel(index):
        if handles:
            tag = sorted(handles)[index % len(handles)]
            handles[tag].cancel()
            if ref is not None:
                ref.cancel(tag)

    def lockstep(end_time, max_events=-1):
        while max_events != 0:
            # Popped before the engine steps, so a nested cancel of the
            # event now firing finds nothing pending in the oracle either.
            tag = ref.pop_due(end_time)
            if tag is None:
                break
            start = len(fired)
            assert sim.step() is True
            assert fired[start:] == [(ref.now, tag)]
            max_events -= 1

    engine_module._COMPACT_MIN_CANCELLED, saved = (
        compact_min, engine_module._COMPACT_MIN_CANCELLED,
    )
    try:
        for kind, arg in ops:
            if kind == "cancel":
                cancel(arg)
            elif kind == "run_until":
                end = max(arg, sim.now)
                if ref is not None:
                    lockstep(end)
                    assert sim.run_until(end) == 0   # nothing else was due
                else:
                    sim.run_until(end)
            elif kind == "step":
                lockstep(float("inf"), 1) if ref is not None else sim.step()
            else:
                add(kind, arg)
            invariant()
        if drain == "oracle":
            lockstep(float("inf"))
            assert sim.step() is False
        elif drain == "step":
            while sim.step():
                invariant()
        elif drain == "run":
            sim.run()
        else:
            sim.run_until(1e9)
    finally:
        engine_module._COMPACT_MIN_CANCELLED = saved
    assert sim.pending_events == 0
    assert sim.cancelled_pending == 0
    return fired


@given(ops=_OPS)
def test_dispatch_matches_sorted_list_model(ops):
    """Property: whatever mix of schedule/at/post/post_at,
    cancel (early and late), step and run_until a program makes — also
    from inside callbacks — the engine dispatches exactly what a sorted
    ``(time, seq)`` list would, and ``cancelled_pending`` always equals
    the number of cancelled entries actually parked in the heap.
    """
    _execute(ops, "oracle")


@given(ops=_OPS)
def test_step_run_run_until_agree_with_and_without_compaction(ops):
    reference = _execute(ops, "oracle")
    for drain in ("step", "run", "run_until"):
        for compact_min in (0, _COMPACT_MIN_CANCELLED):
            assert _execute(ops, drain, compact_min) == reference
