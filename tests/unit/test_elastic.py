"""Unit tests for Elastic Sketch, through the shipped batch kernel.

Every packet reaches the registers through ``insert_batch``; the
per-packet rule it must equal is ``tests/scalar_monitor.py``'s, held
to it by ``test_sketch_batch.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.elastic import ElasticSketch, ElasticSketchConfig
from tests.scalar_monitor import (
    query,
    read_and_reset,
    read_heavy,
    stored_bytes,
    unattributed_bytes,
)


def insert(sketch: ElasticSketch, *packets) -> None:
    """``(flow, bytes)`` packets into ``sketch`` as one batch."""
    sketch.insert_batch(
        np.asarray([f for f, _ in packets], dtype=np.int64),
        np.asarray([v for _, v in packets], dtype=np.int64),
    )


def make_sketch(**kwargs) -> ElasticSketch:
    defaults = dict(heavy_buckets=256, light_width=1024, light_depth=2, seed=1)
    defaults.update(kwargs)
    return ElasticSketch(ElasticSketchConfig(**defaults))


def test_config_validation():
    with pytest.raises(ValueError):
        ElasticSketchConfig(heavy_buckets=0)
    with pytest.raises(ValueError):
        ElasticSketchConfig(light_width=0)
    with pytest.raises(ValueError):
        ElasticSketchConfig(ostracism_lambda=0.0)
    # A float or bool size or seed is refused by name, not left to fail
    # later inside numpy's allocation or at the seed's first XOR.
    for field, value in [
        ("heavy_buckets", 8.0),
        ("light_width", 4096.0),
        ("light_depth", 2.0),
        ("seed", 1.5),
        ("heavy_buckets", True),
        ("seed", False),
    ]:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ElasticSketchConfig(**{field: value})
    # numpy integers are integers.
    assert ElasticSketchConfig(heavy_buckets=np.int64(8), seed=np.uint32(3)).seed == 3


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_lambda(lam):
    # A NaN or infinite lambda would never ostracize a resident.
    with pytest.raises(ValueError, match="ostracism_lambda"):
        ElasticSketchConfig(ostracism_lambda=lam)


def test_insert_query_single_flow():
    sketch = make_sketch()
    insert(sketch, (7, 1000), (7, 500))
    assert query(sketch, 7) == 1500


def test_negative_bytes_rejected():
    sketch = make_sketch()
    with pytest.raises(ValueError):
        insert(sketch, (1, -1))


def test_read_heavy_contains_resident_flows():
    sketch = make_sketch()
    insert(sketch, (1, 100), (2, 200))
    heavy = read_heavy(sketch)
    assert heavy[1] == 100
    assert heavy[2] == 200


def test_read_and_reset_clears_state():
    sketch = make_sketch()
    insert(sketch, (1, 100))
    result = read_and_reset(sketch)
    assert result == {1: 100}
    assert query(sketch, 1) == 0
    assert read_heavy(sketch) == {}
    assert stored_bytes(sketch) == 0


def test_ostracism_evicts_weak_resident():
    # Tiny heavy part: two flows must collide.
    sketch = make_sketch(heavy_buckets=1, ostracism_lambda=2.0)
    insert(sketch, (1, 100))       # resident
    insert(sketch, (2, 100))       # vote-: ratio 1 < 2, goes to light
    assert sketch.evictions == 0
    insert(sketch, (2, 150))       # vote- 250 >= 2*100: eviction
    assert sketch.evictions == 1
    # New resident is flow 2, flagged (earlier bytes are in the light part).
    heavy = read_heavy(sketch)
    assert 2 in heavy
    assert heavy[2] >= 150 + 100   # vote+ after eviction + light recall
    # Evicted flow 1 is still queryable via the light part.
    assert query(sketch, 1) >= 100


def test_byte_conservation_across_parts():
    """Everything inserted is somewhere: heavy vote+, light, or votes."""
    sketch = make_sketch(heavy_buckets=8, ostracism_lambda=4.0)
    rng = random.Random(5)
    packets = [(rng.randrange(40), rng.randrange(1, 2000)) for _ in range(500)]
    insert(sketch, *packets)
    total = sum(nbytes for _, nbytes in packets)
    assert stored_bytes(sketch) == total
    # Per-flow estimates must cover at least the heavy residents' truth.
    heavy = read_heavy(sketch)
    assert sum(heavy.values()) <= total * 2  # light-part overcount bounded


def test_memory_accounting():
    sketch = make_sketch(heavy_buckets=100, light_width=200, light_depth=2)
    assert sketch.memory_bytes() == 100 * 13 + 200 * 2 * 4


def test_observe_alias_matches_measurement_interface():
    # A switch's observation buffer drains into ``observe_batch``.
    sketch = make_sketch()
    sketch.observe_batch(np.array([3, 4, 3]), np.array([999, 5, 1]))
    assert query(sketch, 3) == 1000
    assert query(sketch, 4) == 5


@settings(deadline=None, max_examples=30)
@given(
    inserts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=1, max_value=5_000),
        ),
        min_size=1,
        max_size=300,
    )
)
def test_heavy_residents_never_undercount(inserts):
    """Property: a flow resident in the heavy part since its first
    insert (never evicted) is counted at least its true size."""
    sketch = ElasticSketch(
        ElasticSketchConfig(heavy_buckets=512, light_width=2048, seed=2)
    )
    insert(sketch, *inserts)
    truth = {}
    for flow, nbytes in inserts:
        truth[flow] = truth.get(flow, 0) + nbytes
    if sketch.evictions == 0:
        for flow, true_bytes in truth.items():
            assert query(sketch, flow) >= true_bytes


@settings(deadline=None, max_examples=30)
@given(
    inserts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=1, max_value=1000),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_total_bytes_invariant(inserts):
    sketch = ElasticSketch(ElasticSketchConfig(heavy_buckets=4, seed=3))
    insert(sketch, *inserts)
    assert stored_bytes(sketch) == sum(nbytes for _, nbytes in inserts)


def test_unattributed_bytes_tracks_light_part_residue():
    sketch = make_sketch(heavy_buckets=1, ostracism_lambda=100.0)
    # Flow 1 is resident; flow 2 collides, lambda too high to evict.
    insert(sketch, (1, 100), (2, 500))
    # Flow 2's bytes sit in the light part, unclaimed by any flag.
    assert unattributed_bytes(sketch) == 500
    assert query(sketch, 2) >= 500


def test_flagged_resident_recalls_light_bytes():
    sketch = make_sketch(heavy_buckets=1, ostracism_lambda=1.0)
    # Flow 2's first packet evicts flow 1 at ratio 1 >= 1.
    insert(sketch, (1, 100), (2, 100), (2, 50))
    heavy = read_heavy(sketch)
    # Flow 2 is resident and flagged; its light-part prefix is added.
    assert heavy[2] >= 150
