"""Ternary flow states updated by a sliding window (Fig. 3 / Fig. 4).

Naive Elastic Sketch classifies a flow from a *single* monitor
interval: anything that moved less than the elephant threshold ``τ``
within one ``λ_MI`` looks like a mouse — including a congested
elephant crawling at low rate, or an elephant that arrived just before
the sketch reset.  Paraleon fixes this with:

* a third state, **potential elephant** (PE): a flow below ``τ`` that
  has stayed *active* (positive bytes) for at least ``δ`` consecutive
  monitor intervals;
* a sliding window of the last ``δ`` intervals' byte counts per flow,
  so state transitions use history instead of one sample.

Transition rules (Fig. 3):

1. ``Φ(f) ≥ τ``                          → **E** (elephant);
2. ``Φ(f) < τ`` but active ≥ δ intervals → **PE**;
3. otherwise                              → **M** (mice).

``Φ(f)`` is the flow's aggregated bytes since it started being
tracked.  A PE flow whose window gains a zero-activity interval falls
back to M (rule 2 no longer holds), and a flow silent for ``δ``
consecutive intervals is expired (it finished — like ``f₃`` in
Fig. 4).  Each PE flow contributes to the FSD proportionally to its
estimated likelihood of becoming an elephant, which we approximate as
``min(1, Φ(f)/τ)`` — it refines toward 1 as more intervals elapse,
matching the paper's description.
"""

from __future__ import annotations

import enum
import math
import numbers
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.units import mb


class TernaryState(enum.Enum):
    MICE = "M"
    POTENTIAL_ELEPHANT = "PE"
    ELEPHANT = "E"


#: Integer codes for the ternary states in columnar storage.
CODE_MICE, CODE_PE, CODE_ELEPHANT = 0, 1, 2
STATE_OF_CODE = {
    CODE_MICE: TernaryState.MICE,
    CODE_PE: TernaryState.POTENTIAL_ELEPHANT,
    CODE_ELEPHANT: TernaryState.ELEPHANT,
}
CODE_OF_STATE = {state: code for code, state in STATE_OF_CODE.items()}

# Typed 0-d operands (see :func:`~repro.sketch.hashing.uint32_operand`).
_ZERO = np.array(0, dtype=np.int64)
_ONE = np.array(1, dtype=np.int64)
_NO_ROW = np.array(-1, dtype=np.int64)
_FALSE = np.array(False)
_ELEPHANT = np.array(CODE_ELEPHANT, dtype=np.int8)


def check_knobs(tau: float, delta: int = 1) -> None:
    """Raise ``ValueError`` unless ``τ`` is finite and positive and ``δ``
    an integer >= 1.

    A NaN or infinite τ never makes an elephant, and ``nan <= 0`` is
    False, so a plain bound check would let the monitor report a
    quietly different FSD.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    if not (isinstance(delta, numbers.Integral) and delta >= 1):
        raise ValueError(f"delta must be an integer >= 1, got {delta}")


class ColumnarSlidingWindowClassifier:
    """Per-switch control-plane flow state tracker, struct-of-arrays.

    Advance it once per monitor interval with the byte counts read (and
    reset) from the local sketch.  ``τ`` defaults to 1 MB and ``δ`` to
    3, per Table III.

    Holds the flow table as one int64 block whose rows are the columns
    (key, id, Φ, streaks, the δ-slot sliding window) plus an int8 state
    column, split into **groups** — one per agent when
    :class:`~repro.monitor.agent.AgentStack` runs N ToRs' tables as one
    — each group's rows contiguous and in that group's own tracking
    order: admitted flows join the end of their group, expired ones are
    compressed out.

    Every row carries a **key**, unique within an interval's input and
    fixed for its flow: the global heavy-part bucket ``group·B +
    bucket`` when the input is a stacked sketch read (``key_span=B``),
    or a number handed out at first sight by :meth:`update_arrays`
    (``key_span=None``).  A
    scratch array indexed by key then finds each tracked row's input
    with two gathers (key → input position, flow id confirms: a
    bucket's resident may have changed), and the next table is one
    gather over ``[zero column | old table]``: survivors from their own
    columns, admissions from the zero column, every column at once.  A
    monitor interval is a fixed sequence of array ops with no per-flow
    Python.

    Per group, the semantics are exactly those of the one-flow-at-a-time
    reference classifier in ``tests/scalar_monitor.py``: new flows are
    admitted only when they moved bytes, in input order; the same streak
    and expiry arithmetic; the same ``Φ ≥ τ`` / ``active ≥ δ``
    transitions.  A group's rows iterate in the order the reference's
    ``flows`` dict does, so downstream float reductions (FSD weights)
    see identical operand sequences and produce bit-identical results.
    """

    #: Rows of the int64 block; the window ring takes the δ rows from
    #: ``_WINDOW`` on.
    _KEY, _FLOW, _CUM, _ACTIVE, _IDLE, _SEEN, _WINDOW = range(7)

    def __init__(
        self, tau: int = mb(1.0), delta: int = 3, key_span: Optional[int] = None
    ):
        check_knobs(tau, delta)
        if key_span is not None and key_span < 1:
            raise ValueError("key_span must be >= 1")
        self.tau = tau
        self.delta = delta
        #: Keys per group when fed from sketch buckets; ``None`` for a
        #: table keyed at first sight by :meth:`update_arrays`.
        self.key_span = key_span
        self.expired_total = 0
        # The table is ``_block`` minus its first column, which is all
        # zeros: the column every admission is gathered from.
        self._block = np.zeros((self._WINDOW + delta, 1), dtype=np.int64)
        self._rows = self._block[:, 1:]
        self._state = np.zeros(0, dtype=np.int8)
        # Every tracked row advances every interval, so the newest byte
        # count of every row sits in window slot ``_slot``.
        self._slot = delta - 1
        #: Row end of each group.
        self._ends = np.zeros(1, dtype=np.int64)
        self._key_of: Optional[Dict[int, int]] = {} if key_span is None else None
        # Input position of each key during an interval, -1 at rest.
        self._where = np.full(key_span or 0, -1, dtype=np.int64)
        # The knobs as typed operands of their own kinds.
        self._tau = np.asarray(tau)
        self._delta = np.asarray(delta)
        self._idle_limit = np.asarray(delta - 1)
        self._span = np.asarray(key_span or 1)

    @classmethod
    def stacked(
        cls, parts: Sequence[Tuple["ColumnarSlidingWindowClassifier", int]]
    ) -> "ColumnarSlidingWindowClassifier":
        """One table whose group ``i`` is group ``g`` of ``parts[i] =
        (classifier, g)``, state carried over.

        Every part must be bucket-keyed with one ``key_span`` and
        share τ and δ; a row's key moves to its new group's range.
        """
        first = parts[0][0]
        span = first.key_span
        if span is None or any(
            (c.key_span, c.tau, c.delta) != (span, first.tau, first.delta)
            for c, _ in parts
        ):
            raise ValueError("stacked classifiers need one key_span, tau and delta")
        table = cls(first.tau, first.delta, key_span=span)
        blocks, states = [], []
        for group, (part, g) in enumerate(parts):
            rows = slice(int(part._ends[g - 1]) if g else 0, int(part._ends[g]))
            block = part._rows[:, rows].copy()
            block[cls._KEY] = block[cls._KEY] % span + group * span
            # Align the part's window ring with the new table's slot.
            block[cls._WINDOW:] = np.roll(
                block[cls._WINDOW:], table._slot - part._slot, axis=0
            )
            blocks.append(block)
            states.append(part._state[rows])
        table._block = np.concatenate([table._block] + blocks, axis=1)
        table._rows = table._block[:, 1:]
        table._state = np.concatenate(states)
        table._ends = np.cumsum([b.shape[1] for b in blocks], dtype=np.int64)
        # A table several parts share counts its expiries once.
        table.expired_total = sum(
            {id(c): c.expired_total for c, _ in parts}.values()
        )
        table._where = np.full(len(parts) * span, -1, dtype=np.int64)
        return table

    # -- interval update -------------------------------------------------

    def advance(
        self,
        keys: np.ndarray,
        flow_ids: np.ndarray,
        interval_bytes: np.ndarray,
        ends: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance one monitor interval for every group at once.

        The input is grouped like the table: group ``g``'s rows end at
        ``ends[g]``.  ``keys`` are unique and fixed per flow (see the
        class docstring), ``flow_ids`` unique within a group, and
        ``interval_bytes`` this interval's byte counts; flows absent
        from the input transmitted nothing.  Returns the table's
        ``(flow_ids, cumulative_bytes, state_codes, row_ends)``.
        """
        return self._advance(
            np.asarray(keys, dtype=np.int64),
            np.asarray(flow_ids, dtype=np.int64),
            np.asarray(interval_bytes, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
        )

    def _advance(
        self, keys: np.ndarray, ids: np.ndarray, vals: np.ndarray, ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`advance` over int64 arrays, which it takes as they are
        (a stacked sketch read, as :class:`~repro.monitor.agent.AgentStack`
        hands it over)."""
        if ends.size != self._ends.size:
            raise ValueError(
                f"input has {ends.size} groups, the table {self._ends.size}"
            )
        rows = self._rows
        tracked = rows.shape[1]
        n = ids.size

        # Each tracked row's input: its key finds it, its flow id
        # confirms it.  Admission takes the other movers in input order,
        # as the reference classifier's dict walk does; zero-byte
        # strangers get no row.
        where = self._where
        where[keys] = np.arange(n)
        at = where[rows[self._KEY]]
        where[keys] = _NO_ROW
        movers = vals > _ZERO
        if n:
            hit = (at >= _ZERO) & (ids[at] == rows[self._FLOW])
            nb = vals[at]
            nb *= hit
            movers[at[hit]] = _FALSE
        else:
            nb = rows[self._CUM] * 0
        admit = movers.nonzero()[0]
        fresh = admit.size
        if tracked + fresh == 0:
            return rows[self._FLOW], rows[self._CUM], self._state, self._ends

        # A row expires after δ idle intervals; each group keeps its
        # survivors, then its admissions.
        survivors = ((nb > _ZERO) | (rows[self._IDLE] < self._idle_limit)).nonzero()[0]
        admitted_keys = keys[admit]
        kept = survivors.size
        kept_through = survivors.searchsorted(self._ends)
        fresh_through = admit.searchsorted(ends)
        self._ends = kept_through + fresh_through
        self.expired_total += tracked - kept
        if ends.size == 1:
            kept_at, fresh_at = slice(0, kept), slice(kept, kept + fresh)
        else:
            # Survivors move up by the admissions of the groups before
            # theirs (keys below their group's first key: the input is
            # grouped, so those admissions come first), admissions by
            # the survivors up to their own group.
            span = self._span
            kept_keys = rows[self._KEY][survivors]
            kept_at = np.arange(kept) + admitted_keys.searchsorted(
                kept_keys // span * span
            )
            fresh_at = np.arange(fresh) + kept_through[admitted_keys // span]

        # The next table is one gather over [zero column | old table]:
        # survivors from their own columns, admissions from the zero
        # column, into a new block every interval, so the columns a
        # snapshot handed out stay valid.  This interval's bytes ride
        # along in the old table's oldest window slot, which the new
        # table overwrites and no snapshot reads.
        slot = (self._slot + 1) % self.delta
        block = self._block
        block[self._WINDOW + slot, 1:] = nb
        source = np.zeros(kept + fresh + 1, dtype=np.intp)
        source[1:][kept_at] = survivors + _ONE
        block = block.take(source, axis=1)
        rows = block[:, 1:]
        nb = rows[self._WINDOW + slot]
        # Row views, then 1-D scatters: numpy's mixed int/array index is
        # its slow general path.
        rows[self._KEY][fresh_at] = admitted_keys
        rows[self._FLOW][fresh_at] = ids[admit]
        nb[fresh_at] = vals[admit]
        rows[self._CUM] += nb
        # The two streaks and the interval count, adjacent rows, each
        # one more; a move then zeroes the idle streak, a silence the
        # active one.
        rows[self._ACTIVE : self._SEEN + 1] += _ONE
        moved = nb > _ZERO
        active, idle = rows[self._ACTIVE], rows[self._IDLE]
        active *= moved
        idle *= ~moved
        self._block, self._rows, self._slot = block, rows, slot
        # Codes rank M (0) < PE (1) < E (2), so a row's state is the
        # larger of the two rules' codes.
        state = (rows[self._CUM] >= self._tau) * _ELEPHANT
        self._state = np.maximum(state, active >= self._delta, out=state)
        return rows[self._FLOW], rows[self._CUM], self._state, self._ends

    def _first_sight_keys(self, ids: np.ndarray) -> np.ndarray:
        key_of = self._key_of
        if key_of is None:
            raise ValueError(
                "this flow table is keyed by sketch bucket; it advances "
                "through its agent's collect()"
            )
        keys = np.fromiter(
            (key_of.setdefault(f, len(key_of)) for f in ids.tolist()),
            dtype=np.int64,
            count=ids.size,
        )
        if self._where.size < len(key_of):
            self._where = np.full(2 * len(key_of), -1, dtype=np.int64)
        return keys

    def update_arrays(self, flow_ids: np.ndarray, interval_bytes: np.ndarray) -> None:
        """Advance one monitor interval of a single-group table.

        ``flow_ids`` must be unique (a sketch read yields each flow at
        most once); ``interval_bytes`` are this interval's byte counts.
        Keys are handed out at first sight.
        """
        ids = np.asarray(flow_ids, dtype=np.int64)
        self.advance(self._first_sight_keys(ids), ids, interval_bytes, [ids.size])

    # -- snapshots -------------------------------------------------------

    def snapshot_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flow_ids, cumulative_bytes, state_codes), groups in order,
        each in tracking order.

        The table's own columns, not copies: :meth:`advance` builds a
        new table rather than writing into them.
        """
        return self._rows[self._FLOW], self._rows[self._CUM], self._state

    @property
    def nbytes(self) -> int:
        """Bytes the table holds: its int64 block plus its int8 state
        column."""
        return self._rows.nbytes + self._state.nbytes
