"""Count-min sketch — the Light Part of Elastic Sketch.

A ``depth × width`` array of counters; inserts add to one counter per
row, queries take the row-wise minimum.  The estimate never
undercounts (a property the test suite checks with hypothesis) and
overcounts by at most the collision noise of the narrowest row.

The counters live in one contiguous ``(depth, width)`` int64 ndarray —
the same flat-register layout the Tofino data plane uses — which gives
three things at once: the per-interval ``reset`` is a single C-level
fill, the scalar per-packet ``insert`` indexes row views without boxing
ints, and the batched kernels hash every row of every key in one
uint32-lane call (:func:`~repro.sketch.hashing.hash32_mixed` under a
``(depth, 1)`` column of row seeds) and scatter-add with one
``np.add.at`` over the flattened table.  Integer addition commutes
exactly, so a batch insert is bit-identical to inserting its packets
one at a time in any order.

A sketch's table may be a view: :meth:`CountMinSketch.bind` moves the
counters into one ``(depth, width)`` slice of a stacked ``(N, depth,
width)`` table, and :func:`insert_stacked` / :func:`query_stacked` add
and answer for keys spread over all N sketches at once; a lone
sketch's :meth:`~CountMinSketch.insert_batch` and
:meth:`~CountMinSketch.query_batch` are their one-sketch case.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import (
    hash32_mixed,
    hash_family,
    hash_family_seeds,
    mix_seed,
    mod32,
)


def as_int64(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` as an int64 array, refusing non-integer input.

    A plain ``astype`` truncates 1.5 to 1 and turns NaN into INT64_MIN,
    so a float batch would be counted silently wrong.
    """
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer array, got {array.dtype}")
    return array.astype(np.int64, copy=False)


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
    table and ``mixed`` the ``(N, depth)`` row seeds of its sketches,
    put through :func:`~repro.sketch.hashing.mix_seed`; ``which`` may
    be one index for every key.  Every row of every key is hashed in
    one call and added with one scatter over the flattened table.
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


class CountMinSketch:
    """Classic count-min over integer keys with byte-count values."""

    def __init__(self, width: int, depth: int = 2, seed: int = 0):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self._seeds = hash_family_seeds(depth, seed=seed ^ 0xC0117E)
        #: The rows' seeds, mixed once (:func:`insert_stacked`).
        self.mixed_seeds = mix_seed(np.array([s & 0xFFFFFFFF for s in self._seeds]))
        self._hashes = hash_family(depth, seed=seed ^ 0xC0117E)
        self._table = np.zeros((depth, width), dtype=np.int64)
        # Pair each row view with its hash once; the scalar insert loop
        # then walks a prebuilt list instead of zipping per call.
        self._lanes = list(zip(self._table, self._hashes))

    def bind(self, table: np.ndarray) -> None:
        """Move the counters into ``table`` and count there from now on.

        ``table`` is a C-contiguous ``(depth, width)`` int64 array,
        typically one slice of a stacked ``(N, depth, width)`` table.
        """
        if (
            table.shape != self._table.shape
            or table.dtype != np.int64
            or not table.flags.c_contiguous
        ):
            raise ValueError(
                f"need a contiguous {self._table.shape} int64 table, "
                f"got {table.shape} {table.dtype}"
            )
        table[...] = self._table
        self._table = table
        self._lanes = list(zip(table, self._hashes))

    def insert(self, key: int, value: int = 1) -> None:
        if value < 0:
            raise ValueError("value must be >= 0")
        width = self.width
        for row, h in self._lanes:
            row[h(key) % width] += value

    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Add many ``(key, value)`` pairs in one vectorized pass.

        Exactly equivalent to ``for k, v in zip(keys, values):
        insert(k, v)`` — counter addition is commutative and exact in
        int64, so the final table state is order-independent.
        """
        keys = as_int64(keys, "keys")
        values = as_int64(values, "values")
        if keys.size == 0:
            return
        if values.min() < 0:
            raise ValueError("value must be >= 0")
        insert_stacked(self._table[None], self.mixed_seeds[None], 0, keys, values)

    def query(self, key: int) -> int:
        width = self.width
        return int(min(row[h(key) % width] for row, h in self._lanes))

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        """Row-wise-minimum estimates for a vector of keys (int64)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        return query_stacked(self._table[None], self.mixed_seeds[None], 0, keys)

    def reset(self) -> None:
        self._table.fill(0)

    def memory_bytes(self, counter_bytes: int = 4) -> int:
        """Modeled SRAM footprint (Table IV style accounting).

        This is the *hardware* cost: the paper's Tofino deployment
        provisions 4-byte SRAM counters per cell, and all Table IV
        overhead numbers are quoted against that register model — not
        against this process's resident memory.  Pass ``counter_bytes``
        to model other register widths.  For the actual bytes held by
        this Python object see :meth:`native_memory_bytes`.
        """
        return self.width * self.depth * counter_bytes

    def native_memory_bytes(self) -> int:
        """Bytes of process RSS backing the counter table (int64 cells)."""
        return int(self._table.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CountMinSketch(width={self.width}, depth={self.depth})"
