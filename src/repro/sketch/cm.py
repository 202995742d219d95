"""Count-min kernels — the Light Part of Elastic Sketch.

A count-min is a ``depth × width`` array of counters; an insert adds
to one counter per row, a query takes the row-wise minimum.  The
estimate never undercounts and overcounts by at most the collision
noise of the narrowest row (the test suite checks both with
hypothesis).

The counters of N sketches live in one C-contiguous ``(N, depth,
width)`` int64 table — the flat-register layout the Tofino data plane
uses — held by :class:`~repro.sketch.elastic.ElasticStack`, whose
per-interval clear fills the members written since their last one.
:func:`insert_stacked` and :func:`query_stacked` add and answer for
keys spread over all N sketches at once: every row of every key is
hashed in one uint32-lane call
(:func:`~repro.sketch.hashing.hash32_mixed` under a ``(depth, 1)``
column of :func:`row_seeds`) and added with one ``np.add.at`` over
the flattened table.  Integer addition commutes exactly, so one
scatter is bit-identical to adding its keys one row at a time in any
order — the per-key rule, which the test oracle writes out.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import hash32_mixed, hash_family_seeds, mix_seed, mod32

_INT64 = np.dtype(np.int64)


def as_int64(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` as an int64 array, refusing non-integer input.

    A plain ``astype`` truncates 1.5 to 1 and turns NaN into INT64_MIN,
    so a float batch would be counted silently wrong.
    """
    if values.__class__ is np.ndarray and values.dtype is _INT64:
        return values
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer array, got {array.dtype}")
    return array.astype(np.int64, copy=False)


def row_seeds(depth: int, seed: int) -> np.ndarray:
    """The ``depth`` row seeds of a count-min seeded ``seed``, put
    through :func:`~repro.sketch.hashing.mix_seed`: one row of the
    ``mixed`` table :func:`insert_stacked` takes."""
    rows = hash_family_seeds(depth, seed=seed ^ 0xC0117E)
    return mix_seed(np.array([s & 0xFFFFFFFF for s in rows]))


def _cells(
    tables: np.ndarray, mixed: np.ndarray, which, keys: np.ndarray
) -> np.ndarray:
    """Flat ``(depth, n)`` cell indices of ``keys[i]`` in sketch
    ``which[i]`` (or all in sketch ``which``) of a contiguous stacked
    table; row ``d`` hashes under ``mixed[which, d]``."""
    depth, width = tables.shape[1:]
    rows = np.arange(depth)[:, None]
    return (which * depth + rows) * width + mod32(
        hash32_mixed(keys, mixed[which, rows]), width
    )


def insert_stacked(
    tables: np.ndarray, mixed: np.ndarray, which, keys: np.ndarray, values: np.ndarray
) -> None:
    """Add ``values[i]`` for ``keys[i]`` into sketch ``which[i]``.

    ``tables`` is a C-contiguous stacked ``(N, depth, width)`` counter
    table and ``mixed`` the ``(N, depth)`` :func:`row_seeds` of its
    sketches; ``which`` may be one index for every key.  Every row of
    every key is hashed in one call and added with one scatter over the
    flattened table.
    """
    cells = _cells(tables, mixed, which, keys)
    # One value per cell, spelled out: ``np.add.at`` with a 2-D index
    # and a 1-D value vector reads past the values (numpy 2.4).
    np.add.at(tables.reshape(-1), cells.ravel(), np.concatenate((values,) * len(cells)))


def query_stacked(
    tables: np.ndarray, mixed: np.ndarray, which, keys: np.ndarray
) -> np.ndarray:
    """Row-wise-minimum estimates of ``keys[i]`` in sketch ``which[i]``,
    over the same stacked table as :func:`insert_stacked`."""
    return tables.reshape(-1)[_cells(tables, mixed, which, keys)].min(axis=0)
