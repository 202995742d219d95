"""The clears fill only the members written since their last one.

``ElasticStack.read_and_reset`` clears a member's ``(depth, width)``
Light Part only when ``ElasticStack._insert`` marked it dirty, at the
one place it writes a Light Part, and ``close_interval`` runs on fresh
registers while no register is marked written.  These tests drive one
stack and a reference stack — whose close is an insert and a read, and
whose clear fills every Light Part of the range it reads — through the
same mid-interval inserts (which keep their spills), interval closes
(with and without flagged residents to read the spills) and one-member
reads, and require every read and, after every read, every Light-Part
row to be equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sketch.elastic import ElasticSketch, ElasticSketchConfig, ElasticStack


class FullFillStack(ElasticStack):
    """The reference: a close is the insert and the read it equals, and
    a clear fills every Light Part of its range, marked or not."""

    def close_interval(self, flow_ids, nbytes, runs):
        chunks, at = [], 0
        for slot, count in runs:
            chunks.append((slot, flow_ids[at : at + count], nbytes[at : at + count]))
            at += count
        self.insert(chunks)
        return self.read_and_reset(0, len(self.sketches))

    def read_and_reset(self, lo, hi):
        result = super().read_and_reset(lo, hi)
        self.light[lo:hi].fill(0)
        return result


def _stacks(n, lam):
    """A stack of ``n`` lone sketches and its full-fill reference."""
    def sketches():
        return [
            ElasticSketch(
                ElasticSketchConfig(
                    heavy_buckets=4, light_width=8, light_depth=2,
                    ostracism_lambda=lam, seed=slot,
                )
            )
            for slot in range(n)
        ]

    stack = ElasticStack(sketches())
    return stack, FullFillStack(sketches())


def _columns(packets):
    ids = np.array([flow for flow, _ in packets], dtype=np.int64)
    return ids, np.array([nbytes for _, nbytes in packets], dtype=np.int64)


_packets = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 1_500)), min_size=0, max_size=12
)
_runs = st.lists(st.tuples(st.integers(0, 3), _packets), max_size=4)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _runs),
        st.tuples(st.just("close"), _runs),
        st.tuples(st.just("read"), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=14,
)


@settings(deadline=None, max_examples=150)
@given(n=st.integers(1, 4), lam=st.sampled_from([0.5, 1.0, 8.0, 1e9]), ops=_ops)
def test_dirty_only_clear_equals_full_fill(n, lam, ops):
    stack, reference = _stacks(n, lam)
    for op, arg in ops:
        if op == "insert":
            for target in (stack, reference):
                target.insert(
                    (member % n, *_columns(packets)) for member, packets in arg
                )
            continue
        if op == "close":
            runs = [(member % n, packets) for member, packets in arg]
            batch = _columns([p for _, packets in runs for p in packets])
            counts = [(member, len(packets)) for member, packets in runs]
            reads = [target.close_interval(*batch, counts) for target in (stack, reference)]
        else:
            slot = arg % n
            reads = [
                target.sketches[slot].read_and_reset_arrays()
                for target in (stack, reference)
            ]
        got, expected = reads
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.tolist() == b.tolist()
        assert stack.light.tolist() == reference.light.tolist()
        for name in ("flow_id", "pos", "neg", "flag"):
            assert getattr(stack, name).tolist() == getattr(reference, name).tolist()
        # Nothing read is left marked; a read of every member leaves
        # every register empty.
        if op == "close" or n == 1:
            assert not stack.light_dirty.any() and not stack.written
        else:
            assert not stack.light_dirty[slot]
    assert [s.evictions for s in stack.sketches] == [
        s.evictions for s in reference.sketches
    ]


def test_a_close_without_flagged_residents_writes_and_fills_nothing():
    """Colliders spill, but no resident is flagged to read them: the
    close skips the scatter, marks nothing and fills nothing."""
    stack, _ = _stacks(2, 1e9)
    ids, vals = _columns([(flow, 100) for flow in range(24)])
    stack.close_interval(ids, vals, [(0, 12), (1, 12)])
    assert not stack.light.any() and not stack.light_dirty.any()


def test_a_mid_interval_spill_marks_its_member_only():
    stack, _ = _stacks(3, 1e9)
    stack.insert([(1, *_columns([(flow, 100) for flow in range(24)]))])
    assert stack.light_dirty.tolist() == [False, True, False] and stack.written
    assert stack.light[1].any() and not stack.light[[0, 2]].any()
    stack.sketches[0].read_and_reset_arrays()
    assert stack.light_dirty.tolist() == [False, True, False] and stack.written
    stack.sketches[1].read_and_reset_arrays()
    assert not stack.light_dirty.any() and not stack.light.any()
    # Only a clear of the whole stack vouches for every register.
    assert stack.written
    stack.read_and_reset(0, 3)
    assert not stack.written


def test_a_close_on_clean_registers_writes_no_register():
    """With no Heavy Part written since its clear, a close runs on fresh
    registers of the batch's buckets: it reads what the insert-and-read
    reference reads and leaves every register as it found it, empty."""
    stack, reference = _stacks(2, 0.5)
    ids, vals = _columns([(flow % 9, 100 + flow) for flow in range(40)])
    runs = [(1, 15), (0, 25)]
    got = stack.close_interval(ids, vals, runs)
    expected = reference.close_interval(ids, vals, runs)
    assert [a.tolist() for a in got] == [b.tolist() for b in expected]
    assert sum(s.evictions for s in stack.sketches) > 0
    assert (stack.flow_id == -1).all() and not stack.votes.any() and not stack.flag.any()
    assert not stack.light.any() and not stack.light_dirty.any()
