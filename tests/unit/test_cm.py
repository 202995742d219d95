"""Unit tests for the count-min sketch."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.cm import CountMinSketch
from tests.scalar_monitor import light_bytes


def test_validation():
    with pytest.raises(ValueError):
        CountMinSketch(0)
    with pytest.raises(ValueError):
        CountMinSketch(16, depth=0)
    with pytest.raises(ValueError):
        CountMinSketch(16).insert(1, -5)


def test_exact_when_no_collisions():
    cm = CountMinSketch(1024, depth=3, seed=1)
    cm.insert(42, 100)
    cm.insert(42, 50)
    assert cm.query(42) == 150


def test_unseen_key_zero_when_empty():
    cm = CountMinSketch(64, depth=2, seed=1)
    assert cm.query(9999) == 0


def test_reset():
    cm = CountMinSketch(64, depth=2, seed=1)
    cm.insert(1, 10)
    cm.reset()
    assert cm.query(1) == 0
    assert light_bytes(cm) == 0


def test_total_inserted():
    cm = CountMinSketch(64, depth=2, seed=1)
    cm.insert(1, 10)
    cm.insert(2, 20)
    assert light_bytes(cm) == 30


def test_memory_accounting():
    cm = CountMinSketch(100, depth=3)
    assert cm.memory_bytes() == 100 * 3 * 4


@settings(deadline=None, max_examples=50)
@given(
    inserts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=200,
    )
)
def test_never_undercounts(inserts):
    """Property: count-min estimates are always >= the true count."""
    cm = CountMinSketch(64, depth=2, seed=3)
    truth = {}
    for key, value in inserts:
        cm.insert(key, value)
        truth[key] = truth.get(key, 0) + value
    for key, true_count in truth.items():
        assert cm.query(key) >= true_count


@settings(deadline=None, max_examples=20)
@given(
    inserts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=100),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_estimate_bounded_by_total(inserts):
    """Property: no single estimate exceeds everything inserted."""
    cm = CountMinSketch(32, depth=2, seed=9)
    total = 0
    for key, value in inserts:
        cm.insert(key, value)
        total += value
    for key, _ in inserts:
        assert cm.query(key) <= total
