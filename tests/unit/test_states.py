"""Unit tests for ternary flow states and the sliding window.

The core scenarios mirror Fig. 4 of the paper exactly (δ=3, τ=1MB):
f1 crosses τ in one interval, f2 crawls through PE into E, f3 becomes
PE but goes silent and never reaches E.

Every rule case runs on the shipped columnar table and on the scalar
oracle at once: :class:`Lockstep` feeds both the same intervals, and
each read checks that they agree before the case checks the rule on the
columnar table's state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.monitor.fsd import FlowSizeDistribution
from repro.monitor.states import ColumnarSlidingWindowClassifier, TernaryState
from tests.scalar_monitor import ColumnarView, SlidingWindowClassifier, assert_same_table

MB = 1_000_000


class Lockstep:
    """The oracle and the shipped columnar table, advanced together."""

    def __init__(self, tau: int = MB, delta: int = 3):
        self.oracle = SlidingWindowClassifier(tau=tau, delta=delta)
        self.columnar = ColumnarView(tau=tau, delta=delta)
        self.tau = tau

    def update(self, interval_bytes) -> None:
        self.oracle.update(interval_bytes)
        self.columnar.update(interval_bytes)

    def _agreed(self) -> ColumnarView:
        assert_same_table(self.oracle, self.columnar)
        return self.columnar

    @property
    def flows(self):
        return self._agreed().flows

    @property
    def expired_total(self) -> int:
        return self._agreed().expired_total

    def state_counts(self):
        return self._agreed().state_counts()

    def elephant_weight(self) -> float:
        return self._agreed().elephant_weight()


@pytest.fixture
def clf() -> Lockstep:
    return Lockstep(tau=MB, delta=3)


def test_validation():
    for cls in (SlidingWindowClassifier, ColumnarSlidingWindowClassifier):
        with pytest.raises(ValueError):
            cls(tau=0)
        with pytest.raises(ValueError):
            cls(delta=0)
        # A fractional or NaN window has no meaning.
        with pytest.raises(ValueError, match="delta"):
            cls(delta=2.5)
        with pytest.raises(ValueError, match="delta"):
            cls(delta=float("nan"))


def test_f1_elephant_in_one_interval(clf):
    """Fig. 4, f1: data size exceeds τ immediately -> E."""
    clf.update({1: 2 * MB})
    assert clf.flows[1].state is TernaryState.ELEPHANT


def test_f2_mice_to_pe_to_elephant(clf):
    """Fig. 4, f2: active every MI, crosses τ cumulatively at MI7."""
    per_interval = 160_000  # 0.16 MB per MI
    states = []
    for _ in range(7):
        clf.update({2: per_interval})
        states.append(clf.flows[2].state)
    # MI1, MI2: below τ and window not yet filled -> M.
    assert states[0] is TernaryState.MICE
    assert states[1] is TernaryState.MICE
    # MI3..MI6: window full of activity, still below τ -> PE.
    for s in states[2:6]:
        assert s is TernaryState.POTENTIAL_ELEPHANT
    # MI7: Φ = 7 x 0.16 MB = 1.12 MB >= τ -> E.
    assert states[6] is TernaryState.ELEPHANT


def test_f3_pe_flow_that_finishes_never_becomes_elephant(clf):
    """Fig. 4, f3: PE at MI3, silent afterwards -> demoted, expired."""
    for _ in range(3):
        clf.update({3: 100_000})
    assert clf.flows[3].state is TernaryState.POTENTIAL_ELEPHANT
    clf.update({})  # MI with no data: activity streak broken
    assert clf.flows[3].state is TernaryState.MICE
    clf.update({})
    clf.update({})  # silent for delta intervals -> expired
    assert 3 not in clf.flows
    assert clf.expired_total == 1


def test_elephant_state_is_sticky_while_active(clf):
    clf.update({1: 2 * MB})
    clf.update({1: 10})  # barely active but Φ stays above τ
    assert clf.flows[1].state is TernaryState.ELEPHANT


def test_elephant_expires_after_silence(clf):
    clf.update({1: 2 * MB})
    for _ in range(3):
        clf.update({})
    assert 1 not in clf.flows


def test_congested_elephant_not_misidentified(clf):
    """Keypoint 2's motivating case: an elephant crawling at low
    throughput stays PE (elephant-leaning), never plain mice."""
    for i in range(10):
        clf.update({5: 300_000})
        if i >= 2:
            assert clf.flows[5].state in (
                TernaryState.POTENTIAL_ELEPHANT,
                TernaryState.ELEPHANT,
            )


def test_naive_classifier_misidentifies_the_same_flow():
    """The same crawling elephant is plain MICE to the naive
    single-interval rule, interval after interval."""
    for _ in range(10):
        naive = FlowSizeDistribution.from_sizes({5: 300_000}, tau=MB)
        assert naive.flow_states[5] is TernaryState.MICE


def test_pe_likelihood_refines_toward_one(clf):
    likelihoods = []
    for _ in range(6):
        clf.update({4: 150_000})
        likelihoods.append(clf.flows[4].elephant_likelihood(clf.tau))
    # Monotonically approaching 1 as Φ grows.
    assert likelihoods == sorted(likelihoods)
    assert likelihoods[-1] <= 1.0
    assert likelihoods[-1] > likelihoods[0]


def test_state_counts_and_weight(clf):
    clf.update({1: 2 * MB, 2: 1000})
    counts = clf.state_counts()
    assert counts[TernaryState.ELEPHANT] == 1
    assert counts[TernaryState.MICE] == 1
    # Mice contribute 0 likelihood; only the elephant counts.
    assert clf.elephant_weight() == pytest.approx(1.0)


def test_zero_byte_entries_do_not_create_flows(clf):
    clf.update({9: 0})
    assert 9 not in clf.flows


def test_window_bounded_by_delta(clf):
    for _ in range(10):
        clf.update({1: 10})
    assert len(clf.flows[1].window) == 3


@settings(deadline=None, max_examples=40)
@given(
    series=st.lists(
        st.integers(min_value=0, max_value=600_000), min_size=1, max_size=25
    )
)
def test_transitions_are_legal(series):
    """Property: observed state paths only use Fig. 3's edges.

    Legal transitions: M->M, M->PE, M->E, PE->PE, PE->E, PE->M
    (activity break), E->E.  E never goes back to PE or M while
    tracked.
    """
    clf = Lockstep(tau=MB, delta=3)
    last = None
    for nbytes in series:
        clf.update({1: nbytes})
        entry = clf.flows.get(1)
        if entry is None:
            last = None
            continue
        state = entry.state
        if last is TernaryState.ELEPHANT:
            assert state is TernaryState.ELEPHANT
        last = state


@settings(deadline=None, max_examples=40)
@given(
    series=st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=2_000_000),
            max_size=10,
        ),
        min_size=1,
        max_size=15,
    )
)
def test_cumulative_bytes_match_inputs(series):
    """Property: Φ(f) equals the sum of that flow's interval bytes
    while it remains tracked."""
    clf = Lockstep(tau=MB, delta=3)
    totals = {}
    for interval in series:
        clf.update(interval)
        for flow_id, nbytes in interval.items():
            if nbytes > 0 or flow_id in totals:
                totals[flow_id] = totals.get(flow_id, 0) + nbytes
        for flow_id, entry in clf.flows.items():
            assert entry.cumulative_bytes <= totals.get(flow_id, 0) + 1
