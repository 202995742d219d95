"""Columnar classifier equivalence with the scalar sliding window.

``ColumnarSlidingWindowClassifier`` must replicate the scalar oracle's
``SlidingWindowClassifier`` exactly — same admissions, transitions,
expiries, windows and (bit-identical) float summaries — over arbitrary
interval sequences, because the monitor's reports and the run digests
built on them are compared against the oracle's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.monitor.fsd import FlowSizeDistribution
from repro.monitor.states import ColumnarSlidingWindowClassifier
from tests.scalar_monitor import (
    ColumnarView,
    SlidingWindowClassifier,
    assert_same_table,
    from_entries,
)

# Interval sequences over a small id space with many zero-byte entries,
# so flows regularly go idle long enough to expire and re-enter.
_intervals = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=400_000),
        ),
        min_size=0,
        max_size=10,
    ),
    min_size=1,
    max_size=25,
)


def _as_mapping(pairs):
    mapping = {}
    for flow_id, nbytes in pairs:
        mapping[flow_id] = nbytes  # last occurrence wins, like a real read
    return mapping


@settings(deadline=None, max_examples=60)
@given(intervals=_intervals, tau=st.integers(min_value=1_000, max_value=1_000_000))
def test_columnar_matches_scalar_over_random_intervals(intervals, tau):
    scalar = SlidingWindowClassifier(tau=tau, delta=3)
    columnar = ColumnarView(tau=tau, delta=3)
    for pairs in intervals:
        mapping = _as_mapping(pairs)
        scalar.update(mapping)
        columnar.update(mapping)
        assert_same_table(scalar, columnar)


@settings(deadline=None, max_examples=40)
@given(
    intervals=_intervals,
    delta=st.integers(min_value=1, max_value=5),
)
def test_columnar_fsd_bit_identical(intervals, delta):
    tau = 100_000
    scalar = SlidingWindowClassifier(tau=tau, delta=delta)
    columnar = ColumnarView(tau=tau, delta=delta)
    for pairs in intervals:
        mapping = _as_mapping(pairs)
        scalar.update(mapping)
        columnar.update(mapping)
        via_entries = from_entries(
            scalar.flows.values(), tau=tau
        )
        via_columns = FlowSizeDistribution.from_columns(
            *columnar.snapshot_columns(), tau=tau
        )
        assert via_columns.elephant_weight == via_entries.elephant_weight
        assert via_columns.mice_weight == via_entries.mice_weight
        assert via_columns.histogram == via_entries.histogram
        assert via_columns.flow_states == via_entries.flow_states


@settings(deadline=None, max_examples=40)
@given(
    intervals=st.lists(
        # Wide, unsorted ids in bulk: admissions, updates and expiries
        # of many flows land in the same interval.
        st.dictionaries(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=3_000_000),
            max_size=60,
        ),
        min_size=1,
        max_size=12,
    ),
    delta=st.integers(min_value=1, max_value=4),
)
def test_columnar_matches_scalar_with_bulk_wide_ids(intervals, delta):
    tau = 1_000_000
    scalar = SlidingWindowClassifier(tau=tau, delta=delta)
    columnar = ColumnarView(tau=tau, delta=delta)
    for mapping in intervals:
        scalar.update(mapping)
        columnar.update(mapping)
        assert_same_table(scalar, columnar)


def test_snapshot_survives_later_intervals():
    """``snapshot_columns`` hands out the table's own arrays; later
    intervals must replace them, not write into them."""
    columnar = ColumnarView(tau=1_000, delta=2)
    columnar.update({1: 100, 2: 2_000})
    ids, cum, codes = columnar.snapshot_columns()
    frozen = (ids.tolist(), cum.tolist(), codes.tolist())
    columnar.update({1: 900, 3: 5})
    columnar.update({})
    columnar.update({})
    assert (ids.tolist(), cum.tolist(), codes.tolist()) == frozen
    assert len(columnar) == 0


def test_histogram_bucketing_boundaries():
    """Power-of-two and near-boundary sizes bucket identically both ways."""
    tau = 1 << 40  # keep everything PE/M so cumulative bytes drive buckets
    sizes = [1, 2, 3, 4, 7, 8, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, (1 << 30) + 5]
    scalar = SlidingWindowClassifier(tau=tau, delta=3)
    columnar = ColumnarView(tau=tau, delta=3)
    mapping = {i: size for i, size in enumerate(sizes)}
    scalar.update(mapping)
    columnar.update(mapping)
    a = from_entries(scalar.flows.values(), tau=tau)
    b = FlowSizeDistribution.from_columns(*columnar.snapshot_columns(), tau=tau)
    assert a.histogram == b.histogram


def test_expired_flow_reenters_at_end_of_tracking_order():
    scalar = SlidingWindowClassifier(tau=10_000, delta=2)
    columnar = ColumnarView(tau=10_000, delta=2)
    for clf in (scalar, columnar):
        clf.update({1: 100, 2: 100})
        clf.update({2: 100})   # flow 1 idle
        clf.update({2: 100})   # flow 1 expires (idle streak 2)
        clf.update({1: 50, 2: 100})  # flow 1 re-enters after flow 2
    assert list(scalar.flows) == [2, 1]
    assert list(columnar.entries()) == [2, 1]
    assert_same_table(scalar, columnar)
    assert scalar.expired_total == columnar.expired_total == 1


def test_columnar_growth_preserves_state():
    columnar = ColumnarView(tau=1_000, delta=3)
    scalar = SlidingWindowClassifier(tau=1_000, delta=3)
    for interval in range(4):
        mapping = {flow: 10 * (flow + 1) for flow in range(interval + 2)}
        columnar.update(mapping)
        scalar.update(mapping)
        assert_same_table(scalar, columnar)
    assert len(columnar) == 5


def test_columnar_validation():
    with pytest.raises(ValueError):
        ColumnarSlidingWindowClassifier(tau=0)
    with pytest.raises(ValueError):
        ColumnarSlidingWindowClassifier(delta=0)


@pytest.mark.parametrize(
    "cls", [SlidingWindowClassifier, ColumnarSlidingWindowClassifier]
)
@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0])
def test_classifiers_reject_non_finite_tau(cls, tau):
    # A NaN tau never makes an elephant; an infinite one never does either.
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        cls(tau=tau)


def test_bucket_keyed_table_refuses_mapping_updates():
    """A table keyed by sketch bucket cannot take first-sight keys: the
    same flow would get two rows."""
    columnar = ColumnarView(tau=1_000, delta=2, key_span=8)
    with pytest.raises(ValueError, match="keyed by sketch bucket"):
        columnar.update({1: 100})
    with pytest.raises(ValueError, match="key_span"):
        ColumnarSlidingWindowClassifier(key_span=0)


def test_groups_keep_their_own_tracking_order():
    """Two bucket-keyed groups advance together: each group's rows stay
    contiguous, survivors first, then admissions in input order; a
    bucket whose resident changed does not carry the old flow's row."""
    columnar = ColumnarSlidingWindowClassifier(tau=10_000, delta=2, key_span=4)
    both = ColumnarSlidingWindowClassifier.stacked([(columnar, 0), (columnar, 0)])
    # keys: group 0 owns 0..3, group 1 owns 4..7.
    both.advance([1, 2, 5], [10, 20, 50], [100, 100, 100], [2, 3])
    ids, _, _, ends = both.advance([1, 4, 6], [11, 40, 60], [5, 5, 5], [1, 3])
    # Flow 11 took bucket 1 from flow 10, which keeps its row and idles.
    assert ids.tolist() == [10, 20, 11, 50, 40, 60]
    assert ends.tolist() == [3, 6]
    ids, cum, _, ends = both.advance([], [], [], [0, 0])
    assert ids.tolist() == [11, 40, 60]   # 10, 20, 50 idle for delta=2
    assert cum.tolist() == [5, 5, 5]
    assert ends.tolist() == [1, 3]
    assert both.expired_total == 3
    with pytest.raises(ValueError, match="groups"):
        both.advance([], [], [], [0])

