"""Unit tests for sketch hashing, through the shipped uint32-lane path
``hash32_mixed`` under ``mix_seed``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sketch.hashing import hash32_mixed, hash_family_seeds, mix_seed


def hashes(keys, seed) -> list:
    """``keys`` hashed under one ``seed``, as Python ints."""
    mixed = mix_seed(np.asarray([seed]))
    return hash32_mixed(np.asarray(keys, dtype=np.int64), mixed).tolist()


def test_deterministic():
    assert hashes([12345], seed=7) == hashes([12345], seed=7)


def test_seed_changes_function():
    values = {hashes([999], seed=s)[0] for s in range(16)}
    assert len(values) > 12  # different seeds give different hashes


def test_range_is_32_bits():
    out = hash32_mixed(np.asarray([0, 1, 2**31, 2**63 - 1]), mix_seed(np.asarray([3])))
    assert out.dtype == np.uint32
    for h in out.tolist():
        assert 0 <= h < 2**32


def test_family_size_and_independence():
    family = hash_family_seeds(4, seed=1)
    assert len(family) == 4
    # A (count, 1) column of mixed seeds hashes under every function at once.
    mixed = mix_seed(np.asarray([s & 0xFFFFFFFF for s in family]))[:, None]
    outs = hash32_mixed(np.asarray([424242]), mixed).ravel().tolist()
    assert len(set(outs)) == 4


def test_family_validation():
    with pytest.raises(ValueError):
        hash_family_seeds(0)


@given(key=st.integers(min_value=0, max_value=2**62))
def test_hash_in_range_property(key):
    assert 0 <= hashes([key], seed=11)[0] < 2**32


def test_avalanche_rough():
    """Flipping one input bit should flip roughly half the output bits."""
    base, flipped = hashes([0xABCDEF, 0xABCDEE], seed=5)
    differing = bin(base ^ flipped).count("1")
    assert 8 <= differing <= 24
