"""Unit tests for the count-min Light Part, through the shipped stacked
kernels ``insert_stacked`` and ``query_stacked``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.cm import insert_stacked, query_stacked, row_seeds
from repro.sketch.elastic import ElasticSketch, ElasticSketchConfig
from tests.scalar_monitor import light_bytes


class LightPart:
    """One count-min in the stacked layout: a ``(1, depth, width)``
    table and its row seeds."""

    def __init__(self, width: int, depth: int = 2, seed: int = 0):
        self.tables = np.zeros((1, depth, width), dtype=np.int64)
        self.mixed = row_seeds(depth, seed)[None]

    def insert(self, *pairs) -> None:
        """``(key, value)`` pairs in one scatter."""
        insert_stacked(
            self.tables, self.mixed, 0,
            np.asarray([k for k, _ in pairs], dtype=np.int64),
            np.asarray([v for _, v in pairs], dtype=np.int64),
        )

    def query(self, key: int) -> int:
        return int(query_stacked(self.tables, self.mixed, 0, np.asarray([key]))[0])


def test_validation():
    # The Light Part's shape comes from the sketch config, and its only
    # writer is the Elastic kernel, which refuses a negative count.
    with pytest.raises(ValueError):
        ElasticSketchConfig(light_width=0)
    with pytest.raises(ValueError):
        ElasticSketchConfig(light_depth=0)
    with pytest.raises(ValueError):
        row_seeds(0, seed=1)
    sketch = ElasticSketch(ElasticSketchConfig(light_width=16))
    with pytest.raises(ValueError):
        sketch.insert_batch(np.asarray([1]), np.asarray([-5]))
    assert not sketch.stack.light.any()


def test_exact_when_no_collisions():
    cm = LightPart(1024, depth=3, seed=1)
    cm.insert((42, 100), (42, 50))
    assert cm.query(42) == 150


def test_unseen_key_zero_when_empty():
    cm = LightPart(64, depth=2, seed=1)
    assert cm.query(9999) == 0


def test_reset():
    # The stack's register clear is the Light Part's reset.
    sketch = ElasticSketch(ElasticSketchConfig(light_width=64, seed=1))
    stack = sketch.stack
    insert_stacked(stack.light, stack.light_mixed, 0, np.asarray([1]), np.asarray([10]))
    # Marked as the stack's own Light-Part write marks it: the clear
    # fills only the members written since the last one.
    stack.light_dirty[0] = True
    stack.read_and_reset(0, 1)
    assert query_stacked(stack.light, stack.light_mixed, 0, np.asarray([1])).tolist() == [0]
    assert light_bytes(stack.light[0]) == 0


def test_total_inserted():
    cm = LightPart(64, depth=2, seed=1)
    cm.insert((1, 10), (2, 20))
    assert light_bytes(cm.tables[0]) == 30


def test_memory_accounting():
    # The modeled Light Part is 4 B per counter, beside 13 B per bucket.
    sketch = ElasticSketch(ElasticSketchConfig(heavy_buckets=1, light_width=100, light_depth=3))
    assert sketch.memory_bytes() - 13 == 100 * 3 * 4


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
    cm = LightPart(64, depth=2, seed=3)
    cm.insert(*inserts)
    truth = {}
    for key, value in inserts:
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
    cm = LightPart(32, depth=2, seed=9)
    cm.insert(*inserts)
    total = sum(value for _, value in inserts)
    for key, _ in inserts:
        assert cm.query(key) <= total
