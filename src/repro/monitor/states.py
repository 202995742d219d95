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
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Mapping, Optional, Sequence, Tuple

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


def _check_knobs(tau: float, delta: int) -> None:
    # A NaN or infinite tau never makes an elephant, so the monitor
    # would report a quietly different FSD.
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    if delta < 1:
        raise ValueError("delta must be >= 1")


@dataclass
class FlowStateEntry:
    """Tracked per-flow monitoring state."""

    flow_id: int
    state: TernaryState
    cumulative_bytes: int                   # Φ(f)
    window: Deque[int] = field(default_factory=deque)
    active_streak: int = 0                  # consecutive active intervals
    idle_streak: int = 0                    # consecutive silent intervals
    intervals_seen: int = 0

    def elephant_likelihood(self, tau: int) -> float:
        """Estimated probability this flow ends up an elephant."""
        if self.state is TernaryState.ELEPHANT:
            return 1.0
        if self.state is TernaryState.MICE:
            return 0.0
        return min(1.0, self.cumulative_bytes / tau)


class SlidingWindowClassifier:
    """Per-switch control-plane flow state tracker.

    Call :meth:`update` once per monitor interval with the byte counts
    read (and reset) from the local sketch; it returns the current
    state table.  ``τ`` defaults to 1 MB and ``δ`` to 3, per Table III.
    """

    def __init__(self, tau: int = mb(1.0), delta: int = 3):
        _check_knobs(tau, delta)
        self.tau = tau
        self.delta = delta
        self.flows: Dict[int, FlowStateEntry] = {}
        self.expired_total = 0

    def update(self, interval_bytes: Mapping[int, int]) -> Dict[int, FlowStateEntry]:
        """Advance one monitor interval.

        ``interval_bytes`` maps flow id -> bytes observed this interval
        (flows absent from the mapping transmitted nothing).
        """
        # New flows enter tracking.
        for flow_id in interval_bytes:
            if flow_id not in self.flows and interval_bytes[flow_id] > 0:
                self.flows[flow_id] = FlowStateEntry(
                    flow_id=flow_id,
                    state=TernaryState.MICE,
                    cumulative_bytes=0,
                )

        expired = []
        for flow_id, entry in self.flows.items():
            nbytes = int(interval_bytes.get(flow_id, 0))
            entry.intervals_seen += 1
            entry.cumulative_bytes += nbytes
            entry.window.append(nbytes)
            if len(entry.window) > self.delta:
                entry.window.popleft()
            if nbytes > 0:
                entry.active_streak += 1
                entry.idle_streak = 0
            else:
                entry.active_streak = 0
                entry.idle_streak += 1
                if entry.idle_streak >= self.delta:
                    expired.append(flow_id)
                    continue
            entry.state = self._classify(entry)

        for flow_id in expired:
            del self.flows[flow_id]
        self.expired_total += len(expired)
        return self.flows

    def _classify(self, entry: FlowStateEntry) -> TernaryState:
        if entry.cumulative_bytes >= self.tau:
            return TernaryState.ELEPHANT
        if entry.active_streak >= self.delta:
            return TernaryState.POTENTIAL_ELEPHANT
        return TernaryState.MICE

    # -- summaries -------------------------------------------------------

    def state_counts(self) -> Dict[TernaryState, int]:
        counts = {state: 0 for state in TernaryState}
        for entry in self.flows.values():
            counts[entry.state] += 1
        return counts

    def elephant_weight(self) -> float:
        """Expected number of elephants among tracked flows."""
        return sum(e.elephant_likelihood(self.tau) for e in self.flows.values())

    def __len__(self) -> int:
        return len(self.flows)


class ColumnarSlidingWindowClassifier:
    """Struct-of-arrays twin of :class:`SlidingWindowClassifier`.

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
    or a number handed out at first sight by the mapping wrappers
    :meth:`update` / :meth:`update_arrays` (``key_span=None``).  A
    scratch array indexed by key then finds each tracked row's input
    with two gathers (key → input position, flow id confirms: a
    bucket's resident may have changed), and one ``take`` over the
    block compacts every column after expiry and admission.  A monitor
    interval is a fixed sequence of array ops with no per-flow Python.

    Semantics are exactly the scalar classifier's per group: same
    admission rule (new flows only when they moved bytes, in input
    order), same streak and expiry arithmetic, same ``Φ ≥ τ`` /
    ``active ≥ δ`` transitions.  Because a group's rows iterate in the
    order the scalar ``flows`` dict does, downstream float reductions
    (FSD weights) see identical operand sequences and produce
    bit-identical results.
    """

    #: Rows of the int64 block; the window ring takes the δ rows from
    #: ``_WINDOW`` on.
    _KEY, _FLOW, _CUM, _ACTIVE, _IDLE, _SEEN, _WINDOW = range(7)

    def __init__(
        self, tau: int = mb(1.0), delta: int = 3, key_span: Optional[int] = None
    ):
        _check_knobs(tau, delta)
        if key_span is not None and key_span < 1:
            raise ValueError("key_span must be >= 1")
        self.tau = tau
        self.delta = delta
        #: Keys per group when fed from sketch buckets; ``None`` for a
        #: table keyed at first sight by the mapping wrappers.
        self.key_span = key_span
        self.expired_total = 0
        self._rows = np.zeros((self._WINDOW + delta, 0), dtype=np.int64)
        self._state = np.zeros(0, dtype=np.int8)
        # Every tracked row advances every interval, so the newest byte
        # count of every row sits in window slot ``_slot``.
        self._slot = delta - 1
        #: Row end of each group.
        self._ends = np.zeros(1, dtype=np.int64)
        self._key_of: Optional[Dict[int, int]] = {} if key_span is None else None
        # Input position of each key during an interval, -1 at rest.
        self._where = np.full(key_span or 0, -1, dtype=np.int64)

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
        table._rows = np.concatenate(blocks, axis=1)
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
        keys = np.asarray(keys, dtype=np.int64)
        ids = np.asarray(flow_ids, dtype=np.int64)
        vals = np.asarray(interval_bytes, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if ends.size != self._ends.size:
            raise ValueError(
                f"input has {ends.size} groups, the table {self._ends.size}"
            )
        rows = self._rows
        tracked = rows.shape[1]
        n = ids.size

        # Each tracked row's input: its key finds it, its flow id
        # confirms it; a miss points at a zero past the input.
        where = self._where
        where[keys] = np.arange(n)
        at = where[rows[self._KEY]]
        where[keys] = -1
        hit = at >= 0
        if n:
            hit &= ids[at] == rows[self._FLOW]
        at = np.where(hit, at, n)
        nb = np.concatenate((vals, [0]))[at]
        # Admission takes new movers in input order, as the scalar
        # classifier's dict walk does; zero-byte strangers get no row.
        claimed = np.zeros(n + 1, dtype=bool)
        claimed[at] = True
        admit = np.flatnonzero(~claimed[:n] & (vals > 0))
        fresh = admit.size
        if tracked + fresh == 0:
            return rows[self._FLOW], rows[self._CUM], self._state, self._ends

        # A new block every interval, so the columns a snapshot handed
        # out stay valid after later intervals.
        admitted_rows = np.zeros((rows.shape[0], fresh), dtype=np.int64)
        admitted_rows[self._KEY] = keys[admit]
        admitted_rows[self._FLOW] = ids[admit]
        rows = np.concatenate((rows, admitted_rows), axis=1)
        nb = np.concatenate((nb, vals[admit]))
        self._slot = (self._slot + 1) % self.delta
        rows[self._SEEN] += 1
        rows[self._CUM] += nb
        rows[self._WINDOW + self._slot] = nb
        moved = nb > 0
        active, idle = rows[self._ACTIVE], rows[self._IDLE]
        active += 1
        active *= moved
        idle += 1
        idle *= ~moved

        # Each group keeps its surviving rows, then its admissions.
        survivors = np.flatnonzero(idle[:tracked] < self.delta)
        kept_ends = np.searchsorted(survivors, np.concatenate(([0], self._ends)))
        fresh_ends = np.searchsorted(admit, np.concatenate(([0], ends)))
        self._ends = kept_ends[1:] + fresh_ends[1:]
        expired = tracked - survivors.size
        # With one group, admissions already sit at the end.
        if expired or (fresh and ends.size > 1):
            take = np.empty(survivors.size + fresh, dtype=np.int64)
            take[
                np.arange(survivors.size) + np.repeat(fresh_ends[:-1], np.diff(kept_ends))
            ] = survivors
            take[
                np.arange(fresh) + np.repeat(kept_ends[1:], np.diff(fresh_ends))
            ] = tracked + np.arange(fresh)
            rows = np.take(rows, take, axis=1)
            self.expired_total += expired
        self._rows = rows
        # Codes rank M (0) < PE (1) < E (2), so a row's state is the
        # larger of the two rules' codes.
        self._state = np.maximum(
            (rows[self._ACTIVE] >= self.delta).view(np.int8),
            (rows[self._CUM] >= self.tau).view(np.int8) * np.int8(CODE_ELEPHANT),
        )
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

    def update(self, interval_bytes: Mapping[int, int]) -> None:
        """Mapping-based :meth:`update_arrays` (tests / ablations)."""
        ids = np.fromiter(interval_bytes.keys(), dtype=np.int64, count=len(interval_bytes))
        vals = np.fromiter(interval_bytes.values(), dtype=np.int64, count=len(interval_bytes))
        self.update_arrays(ids, vals)

    # -- snapshots -------------------------------------------------------

    def snapshot_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flow_ids, cumulative_bytes, state_codes), groups in order,
        each in tracking order.

        The table's own columns, not copies: :meth:`advance` builds a
        new table rather than writing into them.
        """
        return self._rows[self._FLOW], self._rows[self._CUM], self._state

    def entries(self) -> Dict[int, FlowStateEntry]:
        """Materialize scalar-style entries of every group (test /
        ablation path only)."""
        out: Dict[int, FlowStateEntry] = {}
        for row, column in enumerate(self._rows.T.tolist()):
            seen = column[self._SEEN]
            length = min(seen, self.delta)
            window: Deque[int] = deque(
                column[self._WINDOW + (self._slot - length + 1 + i) % self.delta]
                for i in range(length)
            )
            out[column[self._FLOW]] = FlowStateEntry(
                flow_id=column[self._FLOW],
                state=STATE_OF_CODE[int(self._state[row])],
                cumulative_bytes=column[self._CUM],
                window=window,
                active_streak=column[self._ACTIVE],
                idle_streak=column[self._IDLE],
                intervals_seen=seen,
            )
        return out

    @property
    def flows(self) -> Dict[int, FlowStateEntry]:
        return self.entries()

    def state_counts(self) -> Dict[TernaryState, int]:
        return {
            state: int(np.count_nonzero(self._state == code))
            for code, state in STATE_OF_CODE.items()
        }

    def elephant_weight(self) -> float:
        codes = self._state
        likelihood = np.where(
            codes == CODE_ELEPHANT,
            1.0,
            np.where(
                codes == CODE_MICE, 0.0, np.minimum(1.0, self._rows[self._CUM] / self.tau)
            ),
        )
        # Sequential sum in tracking order — bit-identical to the scalar
        # classifier's generator sum over the same operand sequence.
        return float(sum(likelihood.tolist()))

    def __len__(self) -> int:
        return self._rows.shape[1]


class SingleIntervalClassifier:
    """The naive Elastic Sketch classification rule (ablation arm).

    A flow is an elephant iff it moved ``τ`` bytes *within one monitor
    interval* — exactly the behaviour Keypoint 2 criticises.  Exposes
    the same surface as :class:`SlidingWindowClassifier` so agents can
    swap one for the other.
    """

    def __init__(self, tau: int = mb(1.0), delta: int = 3):
        self.tau = tau
        self.delta = delta  # unused; kept for interface parity
        self.flows: Dict[int, FlowStateEntry] = {}

    def update(self, interval_bytes: Mapping[int, int]) -> Dict[int, FlowStateEntry]:
        self.flows = {}
        for flow_id, nbytes in interval_bytes.items():
            if nbytes <= 0:
                continue
            state = (
                TernaryState.ELEPHANT if nbytes >= self.tau else TernaryState.MICE
            )
            self.flows[flow_id] = FlowStateEntry(
                flow_id=flow_id,
                state=state,
                cumulative_bytes=int(nbytes),
                active_streak=1,
                intervals_seen=1,
            )
        return self.flows

    def state_counts(self) -> Dict[TernaryState, int]:
        counts = {state: 0 for state in TernaryState}
        for entry in self.flows.values():
            counts[entry.state] += 1
        return counts

    def elephant_weight(self) -> float:
        return sum(e.elephant_likelihood(self.tau) for e in self.flows.values())

    def __len__(self) -> int:
        return len(self.flows)
