"""Deterministic integer hashing for sketches.

Data-plane sketches need cheap, well-mixed, *seedable* hash functions.
We use the 32-bit finalizer from MurmurHash3 (fmix32) over the key
XOR-ed with a seed-derived constant: single-cycle-ish operations, good
avalanche behaviour, and completely deterministic across runs — which
keeps every experiment reproducible.

Two forms are exposed over the same function family:

* scalar — :func:`hash32` / :func:`hash_family`, used by the
  per-packet insert path and anywhere a single key is hashed;
* vectorized — :func:`hash32_array`, the same finalizer over a numpy
  vector of keys.  ``hash32_array(keys, s)[i] == hash32(keys[i], s)``
  bit-for-bit (a property test enforces it), which is what lets the
  batched sketch kernels be digest-identical to sequential insertion.
  ``seed`` may also be a per-key vector, and :func:`mix_seed` /
  :func:`hash32_mixed` split off the seed's own mixing so a sketch
  does it once rather than per call.

The vector form runs in **uint32 lanes**.  fmix32 only ever sees the
low 32 bits of ``key ^ mixed_seed``, and its two multiplies are
defined mod 2³², which is exactly how uint32 arithmetic wraps: a key
is cast to uint32 once (dropping bits the scalar function masks off
anyway) and every step after that needs no mask.  Every array kernel
of the sketches — count-min insert and query, the Elastic Sketch round
kernel, the stacked Light-Part reads — hashes through
:func:`hash32_mixed`, the one vector hash path, and reduces a hash to
a bucket or counter index with :func:`mod32`.

:func:`hash_family_seeds` is the single source of truth for how a
family of ``count`` independent functions derives its per-row seeds;
both the scalar closures and the array kernels consume it so the two
paths can never drift apart.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

_MASK32 = 0xFFFFFFFF
_M1 = np.uint32(0x85EBCA6B)
_M2 = np.uint32(0xC2B2AE35)


def _fmix32(h: int) -> int:
    """MurmurHash3 32-bit finalizer."""
    h &= _MASK32
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def hash32(key: int, seed: int = 0) -> int:
    """Hash an integer key to 32 bits under the given seed."""
    # Mix the seed through the finalizer first so related seeds give
    # unrelated hash functions.
    return _fmix32(key ^ _fmix32(seed * 0x9E3779B9 + 0x165667B1))


def _fmix32_array(h: np.ndarray) -> np.ndarray:
    """:func:`_fmix32` in place over a uint32 array (products wrap mod 2³²)."""
    h ^= h >> 16
    h *= _M1
    h ^= h >> 13
    h *= _M2
    h ^= h >> 16
    return h


def mix_seed(seed) -> np.ndarray:
    """A seed's own finalizer round inside :func:`hash32`, as uint32.

    ``seed`` is one seed or a vector of them.  Only a seed's low 32
    bits reach the hash, and uint32 arithmetic keeps exactly those, so
    the vector form is element-wise the scalar one.  Sketches mix
    their seeds once and hash with :func:`hash32_mixed`.
    """
    if np.ndim(seed):
        mixed = np.asarray(seed).astype(np.uint32)
        mixed *= np.uint32(0x9E3779B9)
        mixed += np.uint32(0x165667B1)
        return _fmix32_array(mixed)
    return np.uint32(_fmix32(int(seed) * 0x9E3779B9 + 0x165667B1))


def hash32_mixed(keys: np.ndarray, mixed) -> np.ndarray:
    """:func:`hash32_array` under seeds already put through
    :func:`mix_seed`, as uint32.

    ``mixed`` is one seed for all keys, one per key, or any array that
    broadcasts against ``keys`` — a ``(depth, 1)`` column hashes every
    key under every row's seed in one call.
    """
    # The int64 → uint32 cast keeps a key's low 32 bits, as astype does.
    h = np.bitwise_xor(keys, mixed, dtype=np.uint32, casting="unsafe")
    return _fmix32_array(h)


def mod32(h: np.ndarray, n: int) -> np.ndarray:
    """``h % n`` for a uint32 hash array and a positive ``n``.

    A power of two is a mask.  Otherwise: numpy divides an integer
    array by a scalar with a precomputed multiplier but computes ``%``
    with a hardware divide per element, so ``h - (h // n)·n`` is the
    same value two to three times faster.
    """
    if n & (n - 1) == 0:
        return h & np.uint32(n - 1)
    n = np.uint32(n)
    q = h // n
    q *= n
    return np.subtract(h, q, out=q)


def hash32_array(keys: np.ndarray, seed=0) -> np.ndarray:
    """Vectorized :func:`hash32` over a vector of non-negative keys.

    ``seed`` is one seed for every key, or a vector of per-key seeds.
    Returns a uint32 array, element-wise bit-identical to the scalar
    function.
    """
    return hash32_mixed(keys, mix_seed(seed))


def hash_family_seeds(count: int, seed: int = 0) -> List[int]:
    """Derived per-function seeds for a family of ``count`` hashes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [seed * 0x01000193 + i * 0x9E3779B9 for i in range(count)]


def hash_family(count: int, seed: int = 0) -> List[Callable[[int], int]]:
    """``count`` independent 32-bit hash functions."""
    return [
        (lambda key, derived=derived: hash32(key, derived))
        for derived in hash_family_seeds(count, seed)
    ]
