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

:func:`hash_family_seeds` is the single source of truth for how a
family of ``count`` independent functions derives its per-row seeds;
both the scalar closures and the array kernels consume it so the two
paths can never drift apart.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

_MASK32 = 0xFFFFFFFF
_U64_MASK32 = np.uint64(_MASK32)


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
    """:func:`_fmix32` in place over a uint64 vector."""
    h &= _U64_MASK32
    h ^= h >> np.uint64(16)
    h *= np.uint64(0x85EBCA6B)
    h &= _U64_MASK32
    h ^= h >> np.uint64(13)
    h *= np.uint64(0xC2B2AE35)
    h &= _U64_MASK32
    h ^= h >> np.uint64(16)
    return h


def mix_seed(seed) -> np.ndarray:
    """A seed's own finalizer round inside :func:`hash32`, as uint64.

    ``seed`` is one seed or a vector of them.  Only a seed's low 32
    bits reach the hash, and wrap-around uint64 arithmetic keeps them,
    so the vector form is element-wise the scalar one.  Sketches mix
    their seeds once and hash with :func:`hash32_mixed`.
    """
    if np.ndim(seed):
        mixed = np.asarray(seed).astype(np.uint64)
        mixed *= np.uint64(0x9E3779B9)
        mixed += np.uint64(0x165667B1)
        return _fmix32_array(mixed)
    return np.uint64(_fmix32(int(seed) * 0x9E3779B9 + 0x165667B1))


def hash32_mixed(keys: np.ndarray, mixed) -> np.ndarray:
    """:func:`hash32_array` under seeds already put through
    :func:`mix_seed`: one for all keys, or one per key."""
    # In place on one fresh uint64 copy: no temporary per step.
    h = np.asarray(keys).astype(np.uint64)
    h ^= mixed
    return _fmix32_array(h).astype(np.int64)


def hash32_array(keys: np.ndarray, seed=0) -> np.ndarray:
    """Vectorized :func:`hash32` over a vector of non-negative keys.

    ``seed`` is one seed for every key, or a vector of per-key seeds.
    Returns an int64 array (values fit in 32 bits, int64 keeps the
    downstream ``% width`` arithmetic in the sketch kernels signed and
    overflow-free).  Element-wise bit-identical to the scalar function.
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
