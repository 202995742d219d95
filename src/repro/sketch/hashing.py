"""Deterministic integer hashing for the sketch kernels.

Data-plane sketches need cheap, well-mixed, *seedable* hash functions.
We use the 32-bit finalizer from MurmurHash3 (fmix32) over the key
XOR-ed with a seed that has been through its own finalizer round:
few operations, good avalanche behaviour, and completely
deterministic across runs — which keeps every experiment reproducible.

There is one hash path, and it is vectorized: :func:`mix_seed` mixes
a vector of seeds once, and :func:`hash32_mixed` hashes a vector of
keys under them — one seed for all keys, one per key, or a ``(depth,
1)`` column that hashes every key under every row's seed in one call.
Every array kernel of the sketches — the count-min insert and query,
the Elastic Sketch round kernel, the stacked Light-Part reads — hashes
through it and reduces a hash to a bucket or counter index with
:func:`mod32`.  The per-key form of the same function, over Python
ints, is the test oracle's (``tests/scalar_monitor.py``), and a
property test holds the two bit-equal.

The hash runs in **uint32 lanes**.  fmix32 only ever sees the low 32
bits of ``key ^ mixed_seed``, and its two multiplies are defined mod
2³², which is exactly how uint32 arithmetic wraps: a key is cast to
uint32 once (dropping bits the finalizer would mask off anyway) and
every step after that needs no mask.

:func:`hash_family_seeds` is the single source of truth for how a
family of ``count`` independent functions derives its per-row seeds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np


@lru_cache(maxsize=None)
def uint32_operand(value: int) -> np.ndarray:
    """``value`` as a read-only 0-d uint32 array.

    The operand to hand a ufunc over small arrays: with a Python int
    or a numpy scalar the call spends about as long again promoting
    the scalar as in its loop.  Cached, so each value is made once.
    """
    operand = np.array(value, dtype=np.uint32)
    operand.setflags(write=False)
    return operand


_M1 = uint32_operand(0x85EBCA6B)
_M2 = uint32_operand(0xC2B2AE35)
_S13 = uint32_operand(13)
_S16 = uint32_operand(16)


def _fmix_lanes(h: np.ndarray) -> np.ndarray:
    """MurmurHash3's 32-bit finalizer in place over a uint32 array
    (products wrap mod 2³²)."""
    h ^= h >> _S16
    h *= _M1
    h ^= h >> _S13
    h *= _M2
    h ^= h >> _S16
    return h


def mix_seed(seeds: np.ndarray) -> np.ndarray:
    """A vector of seeds through their own finalizer round, as uint32.

    Only a seed's low 32 bits reach the hash, and uint32 arithmetic
    keeps exactly those.  Sketches mix their seeds once and hash with
    :func:`hash32_mixed`.
    """
    mixed = np.asarray(seeds).astype(np.uint32)
    mixed *= np.uint32(0x9E3779B9)
    mixed += np.uint32(0x165667B1)
    return _fmix_lanes(mixed)


def hash32_mixed(keys: np.ndarray, mixed) -> np.ndarray:
    """32-bit hashes of non-negative integer ``keys`` under seeds
    already put through :func:`mix_seed`, as uint32.

    ``mixed`` is one seed for all keys, one per key, or any array that
    broadcasts against ``keys`` — a ``(depth, 1)`` column hashes every
    key under every row's seed in one call.
    """
    # The int64 → uint32 cast keeps a key's low 32 bits, as astype does.
    h = np.bitwise_xor(keys, mixed, dtype=np.uint32, casting="unsafe")
    return _fmix_lanes(h)


def mod32(h: np.ndarray, n: int) -> np.ndarray:
    """``h % n`` for a uint32 hash array and a positive ``n``.

    A power of two is a mask.  Otherwise: numpy divides an integer
    array by a scalar with a precomputed multiplier but computes ``%``
    with a hardware divide per element, so ``h - (h // n)·n`` is the
    same value two to three times faster.
    """
    if n & (n - 1) == 0:
        return h & uint32_operand(n - 1)
    n = uint32_operand(n)
    q = h // n
    q *= n
    return np.subtract(h, q, out=q)


def hash_family_seeds(count: int, seed: int = 0) -> List[int]:
    """Derived per-function seeds for a family of ``count`` hashes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [seed * 0x01000193 + i * 0x9E3779B9 for i in range(count)]
