"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import itertools
import math
from heapq import heappush

import pytest
from hypothesis import given, strategies as st

from repro.simulator.engine import SimulationError, Simulator


def test_time_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.events_dispatched == 0


def test_schedule_and_run_until(sim):
    fired = []
    sim.post(1.0, fired.append, "a")
    sim.post(0.5, fired.append, "b")
    sim.run_until(2.0)
    assert fired == ["b", "a"]
    assert sim.now == 2.0


def test_run_until_advances_clock_even_without_events(sim):
    sim.run_until(3.5)
    assert sim.now == 3.5


def test_same_time_events_dispatch_fifo(sim):
    fired = []
    for tag in range(5):
        sim.post_at(1.0, fired.append, tag)
    sim.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]


def test_events_scheduled_during_dispatch_run_in_order(sim):
    fired = []

    def outer():
        fired.append("outer")
        sim.post(0.0, fired.append, "inner")

    sim.post(1.0, outer)
    sim.run_until(1.0)
    assert fired == ["outer", "inner"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.post(-1e-9, lambda: None)


def test_scheduling_in_the_past_rejected(sim):
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.post_at(0.5, lambda: None)


def test_run_until_backwards_rejected(sim):
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.run_until(0.5)


def test_non_finite_times_rejected(sim):
    """Regression: ``post(nan)`` used to enter the heap and break its
    order, so a later ``run_until(0.3)`` dispatched nothing although an
    event was due at 0.2; and ``run_until(nan)`` drained the whole heap
    instead of raising.
    """
    fired = []
    sim.post(0.2, fired.append, "due")
    sim.post(0.5, fired.append, "later")
    for bad in (math.nan, math.inf):
        with pytest.raises(SimulationError):
            sim.post(bad, fired.append, "bad")
        with pytest.raises(SimulationError):
            sim.post_at(bad, fired.append, "bad")
    with pytest.raises(SimulationError):
        sim.run_until(math.nan)
    assert sim.pending_events == 2
    assert sim.run_until(0.3) == 1
    assert fired == ["due"]
    assert sim.now == 0.3


def test_run_until_boundary_inclusive(sim):
    fired = []
    sim.post_at(1.0, fired.append, "edge")
    sim.run_until(1.0)
    assert fired == ["edge"]


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_step_executes_single_event(sim):
    fired = []
    sim.post(0.25, fired.append, 1)
    sim.post(0.75, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.now == 0.25


def test_run_drains_heap(sim):
    fired = []
    for i in range(10):
        sim.post(i * 0.1, fired.append, i)
    count = sim.run()
    assert count == 10
    assert fired == list(range(10))


def test_run_respects_max_events(sim):
    for i in range(10):
        sim.post(i * 0.1, lambda: None)
    assert sim.run(max_events=3) == 3
    assert sim.pending_events == 7


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
def test_dispatch_order_is_nondecreasing(delays):
    """Property: events always fire in non-decreasing time order."""
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.post(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


# ---------------------------------------------------------------------------
# Property: ordering survives interleaved re-posting with guarded callbacks
# ---------------------------------------------------------------------------


@st.composite
def _op_sequences(draw):
    """Interleaved post / drop / repost operation scripts."""
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["post", "drop", "repost"]))
        delay = draw(
            st.floats(min_value=0.0, max_value=5.0).map(lambda x: round(x, 2))
        )
        target = draw(st.integers(min_value=0, max_value=200))
        ops.append((kind, delay, target))
    return ops


@given(ops=_op_sequences())
def test_dispatch_nondecreasing_fifo_under_churn(ops):
    """Property (engine contract): nothing cancels an event, so a caller
    that loses interest guards inside the callback (as the host's pacing
    wake does with its token).  Whatever mix of posting, dropping and
    re-posting happens, events dispatch non-decreasing in time, FIFO
    among equal times (by post order), and exactly the events still
    wanted act.
    """
    sim = Simulator()
    fired = []   # (time, seq) of the events that acted
    live = {}    # target -> seq of its wanted event
    wanted = set()
    seqs = {}

    def fire(seq):
        if seq in wanted:
            fired.append((sim.now, seq))

    next_seq = 0
    for kind, delay, target in ops:
        if kind in ("drop", "repost") and target in live:
            wanted.discard(live.pop(target))
            if kind == "drop":
                continue
        seq = next_seq
        next_seq += 1
        sim.post(delay, fire, seq)
        live[target] = seq
        seqs[seq] = sim.now + delay
        wanted.add(seq)

    assert sim.run() == next_seq   # every post dispatches, wanted or not

    times = [t for t, _ in fired]
    assert times == sorted(times), "dispatch must be non-decreasing in time"
    for (t1, s1), (t2, s2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert s1 < s2, "same-time events must dispatch FIFO"
    assert {s for _, s in fired} == wanted
    for t, s in fired:
        assert t == seqs[s]


# ---------------------------------------------------------------------------
# run() and run_until() bookkeeping
# ---------------------------------------------------------------------------


def test_run_and_run_until_agree_on_events_dispatched(sim):
    for i in range(20):
        sim.post(0.1 * (i + 1), lambda: None)
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
)
def test_run_matches_run_until(delays):
    """Property: run() and run_until(past the last event) dispatch the
    identical event sequence with identical bookkeeping.
    """
    def build():
        s = Simulator()
        fired = []
        for i, delay in enumerate(delays):
            s.post(delay, fired.append, i)
        return s, fired

    sim_a, fired_a = build()
    sim_b, fired_b = build()
    sim_a.run()
    sim_b.run_until(10.0)
    assert fired_a == fired_b
    assert sim_a.events_dispatched == sim_b.events_dispatched == len(delays)
    assert sim_a.pending_events == sim_b.pending_events == 0


# ---------------------------------------------------------------------------
# The three ways in: post, post_at and the packet path's direct push
# ---------------------------------------------------------------------------


def test_post_post_at_and_direct_push_share_one_fifo_order(sim):
    """post/post_at and a direct heap push all draw from the same seq
    counter, and every entry is ``(time, seq, fn, args)``."""
    fired = []
    sim.post(1.0, fired.append, "post")
    heappush(sim.heap, (1.0, sim.next_seq(), fired.append, ("push",)))
    sim.post_at(1.0, fired.append, "post_at")
    assert [len(entry) for entry in sim.heap] == [4, 4, 4]
    assert sorted(entry[1] for entry in sim.heap) == [0, 1, 2]
    sim.run()
    assert fired == ["post", "push", "post_at"]


def test_post_rejects_the_past(sim):
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.post(-1e-9, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_at(0.5, lambda: None)


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

    def pop_due(self, end_time):
        """Tag of the next entry due by ``end_time`` (None if none)."""
        if not self.entries or min(self.entries)[0] > end_time:
            return None
        entry = min(self.entries)
        self.entries.remove(entry)
        self.now, _, tag = entry
        return tag


_KINDS = ("post", "post_at", "push")

_TIMES = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_KINDS), _TIMES),
        st.tuples(st.just("run_until"), _TIMES),
        st.tuples(st.just("step"), st.just(0.0)),
    ),
    min_size=1,
    max_size=60,
)


def _execute(ops, drain):
    """Run an op program; returns the ``(time, tag)`` dispatch sequence.

    ``drain="oracle"`` single-steps the engine in lock-step with the
    sorted-list oracle and checks every dispatch against it; the other
    drains (``step``/``run``/``run_until``) use the engine natively.
    Every other event adds one more when it fires, through each of the
    three ways in by turn, so events also enter mid-dispatch.  A direct
    push is the packet path's ``heappush(sim.heap, (time,
    sim.next_seq(), fn, args))``.
    """
    sim = Simulator()
    ref = _ReferenceCalendar() if drain == "oracle" else None
    fired = []
    tags = itertools.count()

    def add(kind, time, nested=False):
        tag = next(tags)
        delay = max(time, sim.now) - sim.now

        def fn(*args):
            assert args == (tag,)
            fired.append((sim.now, tag))
            if not nested and tag % 2 == 0:
                add(_KINDS[tag // 2 % 3], sim.now + 0.25 * (tag % 3), True)

        when = sim.now + delay
        if kind == "post":
            sim.post(delay, fn, tag)
        elif kind == "post_at":
            sim.post_at(when, fn, tag)
        else:
            heappush(sim.heap, (when, sim.next_seq(), fn, (tag,)))
        if ref is not None:
            ref.push(when, tag)

    def lockstep(end_time, max_events=-1):
        while max_events != 0:
            tag = ref.pop_due(end_time)
            if tag is None:
                break
            start = len(fired)
            assert sim.step() is True
            assert fired[start:] == [(ref.now, tag)]
            max_events -= 1

    for kind, arg in ops:
        if kind == "run_until":
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
    if drain == "oracle":
        lockstep(float("inf"))
        assert sim.step() is False
    elif drain == "step":
        while sim.step():
            pass
    elif drain == "run":
        sim.run()
    else:
        sim.run_until(1e9)
    assert sim.pending_events == 0
    assert sim.events_dispatched == len(fired)
    return fired


@given(ops=_OPS)
def test_dispatch_matches_sorted_list_model(ops):
    """Property: whatever mix of post, post_at, direct push, step and
    run_until a program makes — also from inside callbacks — the engine
    dispatches exactly what a sorted ``(time, seq)`` list would.
    """
    _execute(ops, "oracle")


@given(ops=_OPS)
def test_step_run_run_until_agree(ops):
    reference = _execute(ops, "oracle")
    for drain in ("step", "run", "run_until"):
        assert _execute(ops, drain) == reference
