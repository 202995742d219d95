"""Unit tests for flow size distributions and KL divergence."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.monitor.fsd import (
    FlowSizeDistribution,
    FlowStates,
    HISTOGRAM_BUCKETS,
    group_distributions,
    kl_divergence,
    merge_distributions,
)
from repro.monitor.states import ColumnarSlidingWindowClassifier, TernaryState
from repro.simulator.ordered import ordered_sum
from tests.scalar_monitor import FlowStateEntry, from_entries, fsd_from_sizes

MB = 1_000_000


def entry(flow_id, state, cumulative):
    return FlowStateEntry(flow_id=flow_id, state=state, cumulative_bytes=cumulative)


def test_from_entries_weights():
    fsd = from_entries(
        [
            entry(1, TernaryState.ELEPHANT, 2 * MB),
            entry(2, TernaryState.MICE, 1000),
            entry(3, TernaryState.POTENTIAL_ELEPHANT, MB // 2),
        ],
        tau=MB,
    )
    assert fsd.elephant_weight == pytest.approx(1.0 + 0.5)
    assert fsd.mice_weight == pytest.approx(1.0 + 0.5)
    assert fsd.total_flows == pytest.approx(3.0)


def test_from_sizes():
    fsd = FlowSizeDistribution.from_sizes({1: 2 * MB, 2: 100, 3: 0}, tau=MB)
    assert fsd.elephant_weight == 1.0
    assert fsd.mice_weight == 1.0  # zero-size flow skipped
    assert fsd.flow_states[1] is TernaryState.ELEPHANT


# Sizes around every power of two an int64 holds, where floor(log2)
# changes bucket (past 2**53 a float rounds them; every bucket past 30
# is capped), plus zero and negative sizes, which the rule drops.
_boundary_sizes = st.one_of(
    st.integers(min_value=0, max_value=62).map(lambda k: 2**k),
    st.integers(min_value=1, max_value=63).map(lambda k: 2**k - 1),
    st.integers(min_value=-5, max_value=2**40),
)


@settings(deadline=None, max_examples=200)
@given(
    sizes=st.dictionaries(st.integers(min_value=0, max_value=2**40), _boundary_sizes, max_size=40),
    tau=st.one_of(st.integers(min_value=1, max_value=2**40), _boundary_sizes.filter(lambda t: t > 0)),
)
def test_from_sizes_matches_the_scalar_loop(sizes, tau):
    """The columnar single-interval rule equals the flow-by-flow loop:
    weights, histogram, and flow states in order, bit for bit."""
    got = FlowSizeDistribution.from_sizes(sizes, tau=tau)
    want = fsd_from_sizes(sizes, tau=tau)
    assert got.elephant_weight == want.elephant_weight
    assert got.mice_weight == want.mice_weight
    assert got.histogram == want.histogram
    assert list(got.flow_states.items()) == list(want.flow_states.items())


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0, -1.0])
def test_from_sizes_rejects_bad_tau(tau):
    # A NaN tau would call every flow a mouse.
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        FlowSizeDistribution.from_sizes({1: 10**9}, tau=tau)


def test_dominant_mice():
    fsd = FlowSizeDistribution.from_sizes({i: 100 for i in range(8)} | {99: 2 * MB})
    is_elephant, mu = fsd.dominant()
    assert not is_elephant
    assert mu == pytest.approx(8 / 9)


def test_dominant_elephant():
    fsd = FlowSizeDistribution.from_sizes({i: 2 * MB for i in range(3)} | {99: 10})
    is_elephant, mu = fsd.dominant()
    assert is_elephant
    assert mu == pytest.approx(3 / 4)


def test_empty_distribution():
    fsd = FlowSizeDistribution.from_sizes({})
    assert fsd.total_flows == 0
    assert fsd.elephant_fraction() == 0.0
    hist = fsd.normalized_histogram()
    assert sum(hist) == pytest.approx(1.0)


def test_normalized_histogram_sums_to_one():
    fsd = FlowSizeDistribution.from_sizes({1: 100, 2: 2 * MB, 3: 50_000})
    assert sum(fsd.normalized_histogram()) == pytest.approx(1.0)
    assert len(fsd.histogram) == HISTOGRAM_BUCKETS


def test_kl_zero_for_identical():
    fsd = FlowSizeDistribution.from_sizes({1: 100, 2: 2 * MB})
    assert kl_divergence(fsd, fsd) == pytest.approx(0.0, abs=1e-9)


def test_kl_positive_for_shifted_traffic():
    mice = FlowSizeDistribution.from_sizes({i: 1000 for i in range(10)})
    elephants = FlowSizeDistribution.from_sizes({i: 5 * MB for i in range(10)})
    assert kl_divergence(mice, elephants) > 0.1


def test_kl_detects_influx():
    """The Fig. 8 trigger: mice arriving on an elephant-only pattern."""
    before = FlowSizeDistribution.from_sizes({i: 5 * MB for i in range(5)})
    after = FlowSizeDistribution.from_sizes(
        {i: 5 * MB for i in range(5)} | {100 + i: 2000 for i in range(20)}
    )
    assert kl_divergence(after, before) > 0.01  # exceeds Table III theta


def test_classification_accuracy():
    fsd = from_entries(
        [
            entry(1, TernaryState.ELEPHANT, 2 * MB),
            entry(2, TernaryState.MICE, 500),
            entry(3, TernaryState.POTENTIAL_ELEPHANT, MB // 2),
        ]
    )
    truth = {1: True, 2: False, 3: True, 4: False}
    # 1 right, 2 right, 3 right (PE counts as elephant), 4 unseen-wrong.
    assert fsd.classification_accuracy(truth) == pytest.approx(3 / 4)


def test_classification_accuracy_empty_truth():
    fsd = FlowSizeDistribution.from_sizes({})
    assert fsd.classification_accuracy({}) == 1.0


def test_distribution_accuracy():
    measured = FlowSizeDistribution.from_sizes({1: 2 * MB, 2: 100})
    truth = FlowSizeDistribution.from_sizes({1: 2 * MB, 2: 100})
    assert measured.distribution_accuracy(truth) == pytest.approx(1.0)
    all_mice = FlowSizeDistribution.from_sizes({1: 10, 2: 100})
    assert measured.distribution_accuracy(all_mice) == pytest.approx(0.5)


def test_merge_disjoint_parts():
    a = FlowSizeDistribution.from_sizes({1: 2 * MB})
    b = FlowSizeDistribution.from_sizes({2: 100, 3: 200})
    merged = merge_distributions([a, b])
    assert merged.total_flows == pytest.approx(3.0)
    assert merged.elephant_weight == pytest.approx(1.0)
    assert set(merged.flow_states) == {1, 2, 3}


def test_flow_states_columns_behave_as_the_dict():
    states = FlowStates(
        np.asarray([7, 3, 9], dtype=np.int64), np.asarray([2, 0, 1], dtype=np.int8)
    )
    expected = {
        7: TernaryState.ELEPHANT,
        3: TernaryState.MICE,
        9: TernaryState.POTENTIAL_ELEPHANT,
    }
    assert states == expected and expected == states
    assert list(states) == [7, 3, 9]
    assert states.get(4) is None and len(states) == 3
    assert pickle.loads(pickle.dumps(states)) == expected
    assert FlowStates.of(expected) == states
    assert FlowStates() == {}


def test_merge_later_part_wins_a_repeated_flow():
    """Columnar merge keeps ``dict.update`` semantics when parts overlap."""
    a = FlowSizeDistribution.from_sizes({1: 100, 2: 2 * MB})
    b = FlowSizeDistribution.from_sizes({1: 2 * MB, 3: 100})
    merged = merge_distributions([a, b])
    assert list(merged.flow_states) == [1, 2, 3]
    assert merged.flow_states[1] is TernaryState.ELEPHANT
    assert merged.flow_states == {**a.flow_states, **b.flow_states}


def test_merge_overlap_double_counts():
    """Without TOS dedup the same flow inflates the merged FSD —
    the failure the marking protocol exists to prevent."""
    a = FlowSizeDistribution.from_sizes({1: 2 * MB})
    merged = merge_distributions([a, a])
    assert merged.elephant_weight == pytest.approx(2.0)  # wrong, by design


@settings(deadline=None, max_examples=40)
@given(
    sizes_a=st.dictionaries(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=10 * MB),
        min_size=1,
        max_size=30,
    ),
    sizes_b=st.dictionaries(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=10 * MB),
        min_size=1,
        max_size=30,
    ),
)
def test_kl_nonnegative_property(sizes_a, sizes_b):
    a = FlowSizeDistribution.from_sizes(sizes_a)
    b = FlowSizeDistribution.from_sizes(sizes_b)
    assert kl_divergence(a, b) >= -1e-12


@settings(deadline=None, max_examples=40)
@given(
    sizes=st.dictionaries(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=10 * MB),
        min_size=1,
        max_size=30,
    )
)
def test_elephant_fraction_in_unit_range(sizes):
    fsd = FlowSizeDistribution.from_sizes(sizes)
    assert 0.0 <= fsd.elephant_fraction() <= 1.0
    is_elephant, mu = fsd.dominant()
    assert 0.5 <= mu <= 1.0


# -- normalized-histogram memoization -----------------------------------


def test_normalized_histogram_is_memoized():
    fsd = FlowSizeDistribution.from_sizes({1: 100, 2: 5 * MB, 3: 2000})
    first = fsd.normalized_histogram()
    second = fsd.normalized_histogram()
    assert second is first  # cache hit returns the same tuple


def test_normalized_histogram_cache_invalidates_on_new_histogram():
    fsd = FlowSizeDistribution.from_sizes({1: 100, 2: 5 * MB})
    stale = fsd.normalized_histogram()
    replacement = FlowSizeDistribution.from_sizes({1: 100, 2: 5 * MB, 3: 64})
    fsd.histogram = replacement.histogram
    fresh = fsd.normalized_histogram()
    assert fresh is not stale
    assert fresh == replacement.normalized_histogram()


def test_normalized_histogram_cache_keyed_on_epsilon():
    fsd = FlowSizeDistribution.from_sizes({1: 100, 2: 5 * MB})
    loose = fsd.normalized_histogram(epsilon=1e-3)
    tight = fsd.normalized_histogram(epsilon=1e-9)
    assert loose != tight
    assert fsd.normalized_histogram(epsilon=1e-9) is tight


def test_normalized_histogram_values_unchanged_by_cache():
    fsd = FlowSizeDistribution.from_sizes({1: 100, 2: 5 * MB, 3: 2000})
    epsilon = 1e-9
    total = sum(fsd.histogram)
    n = len(fsd.histogram)
    expected = tuple(
        (value + epsilon) / (total + epsilon * n) for value in fsd.histogram
    )
    assert fsd.normalized_histogram(epsilon) == pytest.approx(expected)
    assert sum(fsd.normalized_histogram(epsilon)) == pytest.approx(1.0)


# -- vectorized merge ----------------------------------------------------


def test_merge_matches_elementwise_sum():
    parts = [
        FlowSizeDistribution.from_sizes({1: 100, 2: 5 * MB}),
        FlowSizeDistribution.from_sizes({3: 2000, 4: 3 * MB, 5: 77}),
        FlowSizeDistribution.from_sizes({6: 1}),
    ]
    merged = merge_distributions(parts)
    expected = tuple(
        sum(part.histogram[i] for part in parts)
        for i in range(HISTOGRAM_BUCKETS)
    )
    assert merged.histogram == expected
    assert all(isinstance(v, float) for v in merged.histogram)


def test_merge_accepts_generator_and_empty_input():
    parts = [
        FlowSizeDistribution.from_sizes({1: 100}),
        FlowSizeDistribution.from_sizes({2: 5 * MB}),
    ]
    from_generator = merge_distributions(p for p in parts)
    from_list = merge_distributions(parts)
    assert from_generator.histogram == from_list.histogram
    assert from_generator.total_flows == from_list.total_flows

    empty = merge_distributions([])
    assert empty.histogram == tuple([0.0] * HISTOGRAM_BUCKETS)
    assert empty.total_flows == 0.0


@settings(deadline=None, max_examples=40)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=700), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_from_groups_equals_each_group_alone(sizes, seed):
    """Every group's FSD is bit-identical to a one-group call on a copy
    of its rows, whatever the slice's length and offset."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    ids = rng.integers(0, 2**40, n)
    cum = rng.integers(0, 3 * MB, n)
    codes = rng.integers(0, 3, n).astype(np.int8)
    ends = np.cumsum(sizes)
    groups, merged = group_distributions(ids, cum, codes, ends, tau=MB)
    lo = 0
    for hi, got in zip(ends.tolist(), groups):
        alone = FlowSizeDistribution.from_columns(
            ids[lo:hi].copy(), cum[lo:hi].copy(), codes[lo:hi].copy(), tau=MB
        )
        assert got.elephant_weight == alone.elephant_weight
        assert got.mice_weight == alone.mice_weight
        assert got.histogram == alone.histogram
        assert got.flow_states == alone.flow_states
        likelihood = np.where(
            codes[lo:hi] == 2, 1.0, np.where(codes[lo:hi] == 0, 0.0, np.minimum(1.0, cum[lo:hi] / MB))
        )
        assert got.elephant_weight == float(np.sum(likelihood.copy()))
        assert got.mice_weight == float(np.sum(1.0 - likelihood))
        lo = hi
    # The merge from the same pass is merge_distributions' bit for bit.
    reference = merge_distributions(groups)
    assert merged.elephant_weight == reference.elephant_weight
    assert merged.mice_weight == reference.mice_weight
    assert merged.histogram == reference.histogram
    assert list(merged.flow_states.items()) == list(reference.flow_states.items())


@settings(deadline=None, max_examples=60)
@given(
    intervals=st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.tuples(st.integers(0, 30), st.integers(0, 600_000)),
            max_size=8,
        ),
        min_size=1,
        max_size=8,
    ),
    tau=st.sampled_from([1, 100_000, 1_000_000]),
    delta=st.integers(min_value=1, max_value=3),
)
def test_table_columns_give_the_general_kernels_bits(intervals, tau, delta):
    """On a flow table's own columns (two groups of bucket keys), the
    ``table=True`` likelihood — ``min(Φ/τ, code != M)`` over a float64
    τ — gives every group and the merge the bits of the general
    kernel's masked writes."""
    part = ColumnarSlidingWindowClassifier(tau=tau, delta=delta, key_span=4)
    table = ColumnarSlidingWindowClassifier.stacked([(part, 0), (part, 0)])
    for reads in intervals:
        keys = sorted(reads)
        ids, cum, codes, ends = table.advance(
            keys,
            [reads[k][0] for k in keys],
            [reads[k][1] for k in keys],
            [sum(k < 4 for k in keys), len(keys)],
        )
        fast = group_distributions(
            ids, cum, codes, ends.tolist(), np.array(float(tau)), table=True
        )
        general = group_distributions(ids, cum, codes, ends, tau)
        for got, expected in zip(fast[0] + [fast[1]], general[0] + [general[1]]):
            assert got.elephant_weight == expected.elephant_weight
            assert got.mice_weight == expected.mice_weight
            assert got.histogram == expected.histogram
            assert list(got.flow_states.items()) == list(expected.flow_states.items())


def _kl_reference(current, previous, epsilon=1e-9):
    """The per-bin rule ``kl_divergence`` folds: bins not > 0 add nothing."""
    p = current.normalized_histogram(epsilon)
    q = previous.normalized_histogram(epsilon)
    return ordered_sum([pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0])


_counts = st.lists(
    st.integers(min_value=0, max_value=50), min_size=HISTOGRAM_BUCKETS, max_size=HISTOGRAM_BUCKETS
)


@settings(deadline=None, max_examples=80)
@given(a=_counts, b=_counts, epsilon=st.sampled_from([1e-9, 1e-3, 0.0]))
def test_kl_fold_equals_the_per_bin_rule(a, b, epsilon):
    current = FlowSizeDistribution(histogram=tuple(float(x) for x in a))
    previous = FlowSizeDistribution(histogram=tuple(float(x) + 1.0 for x in b))
    assert repr(kl_divergence(current, previous, epsilon)) == repr(
        _kl_reference(current, previous, epsilon)
    )


def test_kl_skips_bins_that_are_not_positive():
    # ε = 0: empty bins are 0 and add nothing; a NaN histogram is NaN
    # in every bin, none of which is > 0.
    current = FlowSizeDistribution(histogram=(0.0, 3.0, 1.0) + (0.0,) * 28)
    previous = FlowSizeDistribution(histogram=(1.0,) * 31)
    assert kl_divergence(current, previous, 0.0) == _kl_reference(current, previous, 0.0)
    broken = FlowSizeDistribution(histogram=(float("nan"),) * 31)
    assert kl_divergence(broken, previous) == 0.0
