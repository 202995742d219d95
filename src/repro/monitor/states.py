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
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Mapping, Tuple

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
        if tau <= 0:
            raise ValueError("tau must be positive")
        if delta < 1:
            raise ValueError("delta must be >= 1")
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

    Holds the flow table as parallel numpy columns (id, Φ, streaks,
    state code, sliding window) whose row order *is* the tracking
    order: admitted flows are appended, expired ones compressed out.
    A monitor interval is then a fixed sequence of array ops with no
    per-flow Python: tracked ids are found with one ``searchsorted``
    over an argsort of the table, and new flows are admitted as one
    masked append in input order.  Semantics are exactly the scalar
    classifier's: same admission rule (new flows only when they moved
    bytes this interval, in mapping order), same streak and expiry
    arithmetic, same ``Φ ≥ τ`` / ``active ≥ δ`` transitions.  Because
    rows iterate in the order the scalar ``flows`` dict does, downstream
    float reductions (FSD weights) see identical operand sequences and
    produce bit-identical results.
    """

    #: Per-row columns, extended together on admission and compressed
    #: together on expiry.
    _COLUMNS = ("_flow_id", "_cum", "_active", "_idle", "_seen", "_state", "_window")

    def __init__(self, tau: int = mb(1.0), delta: int = 3):
        if tau <= 0:
            raise ValueError("tau must be positive")
        if delta < 1:
            raise ValueError("delta must be >= 1")
        self.tau = tau
        self.delta = delta
        self.expired_total = 0
        self._flow_id = np.zeros(0, dtype=np.int64)
        self._cum = np.zeros(0, dtype=np.int64)
        self._active = np.zeros(0, dtype=np.int64)
        self._idle = np.zeros(0, dtype=np.int64)
        self._seen = np.zeros(0, dtype=np.int64)
        self._state = np.zeros(0, dtype=np.int8)
        # Sliding windows share one ring: every tracked row advances
        # every interval, so the newest byte count of every row sits
        # in column ``_slot``.
        self._window = np.zeros((0, delta), dtype=np.int64)
        self._slot = delta - 1

    # -- interval update -------------------------------------------------

    def update_arrays(self, flow_ids: np.ndarray, interval_bytes: np.ndarray) -> None:
        """Advance one monitor interval from columnar sketch output.

        ``flow_ids`` must be unique (a sketch read yields each flow at
        most once); ``interval_bytes`` are this interval's byte counts.
        Flows absent from ``flow_ids`` transmitted nothing.
        """
        ids = np.asarray(flow_ids, dtype=np.int64)
        vals = np.asarray(interval_bytes, dtype=np.int64)
        table = self._flow_id
        tracked = table.size

        # Which input flows already hold a row, and which one.
        row = np.zeros(ids.size, dtype=np.int64)
        found = np.zeros(ids.size, dtype=bool)
        if tracked and ids.size:
            # (searchsorted's own ``sorter=`` is several times slower
            # than searching a sorted copy.)
            sorter = np.argsort(table)
            slot = np.searchsorted(table[sorter], ids)
            row = sorter[np.minimum(slot, tracked - 1)]
            found = table[row] == ids
        # Admission appends new movers in input order, as the scalar
        # classifier's dict walk does; zero-byte strangers get no row.
        admit = ~found & (vals > 0)
        fresh = int(np.count_nonzero(admit))
        if tracked + fresh == 0:
            return
        if fresh:
            for name in self._COLUMNS:
                column = getattr(self, name)
                blank = np.zeros((fresh,) + column.shape[1:], dtype=column.dtype)
                setattr(self, name, np.concatenate((column, blank)))
            self._flow_id[tracked:] = ids[admit]

        nb = np.zeros(tracked + fresh, dtype=np.int64)
        nb[row[found]] = vals[found]
        nb[tracked:] = vals[admit]
        # Columns are replaced, never written in place, so the arrays a
        # snapshot handed out stay valid after later intervals.
        self._seen = self._seen + 1
        self._cum = self._cum + nb
        self._slot = (self._slot + 1) % self.delta
        self._window[:, self._slot] = nb

        was_active = nb > 0
        self._active = np.where(was_active, self._active + 1, 0)
        self._idle = np.where(was_active, 0, self._idle + 1)
        self._state = np.where(
            self._cum >= self.tau,
            CODE_ELEPHANT,
            np.where(self._active >= self.delta, CODE_PE, CODE_MICE),
        ).astype(np.int8)

        expiring = self._idle >= self.delta
        if expiring.any():
            keep = ~expiring
            for name in self._COLUMNS:
                setattr(self, name, getattr(self, name)[keep])
            self.expired_total += int(np.count_nonzero(expiring))

    def update(self, interval_bytes: Mapping[int, int]) -> None:
        """Mapping-based convenience wrapper (tests / ablations)."""
        ids = np.fromiter(interval_bytes.keys(), dtype=np.int64, count=len(interval_bytes))
        vals = np.fromiter(interval_bytes.values(), dtype=np.int64, count=len(interval_bytes))
        self.update_arrays(ids, vals)

    # -- snapshots -------------------------------------------------------

    def snapshot_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flow_ids, cumulative_bytes, state_codes) in tracking order.

        The table's own columns, not copies: :meth:`update_arrays`
        replaces them rather than writing into them.
        """
        return self._flow_id, self._cum, self._state

    def entries(self) -> Dict[int, FlowStateEntry]:
        """Materialize scalar-style entries (test / ablation path only)."""
        out: Dict[int, FlowStateEntry] = {}
        for row in range(self._flow_id.size):
            seen = int(self._seen[row])
            length = min(seen, self.delta)
            window: Deque[int] = deque()
            for i in range(length):
                slot = (self._slot - length + 1 + i) % self.delta
                window.append(int(self._window[row, slot]))
            out[int(self._flow_id[row])] = FlowStateEntry(
                flow_id=int(self._flow_id[row]),
                state=STATE_OF_CODE[int(self._state[row])],
                cumulative_bytes=int(self._cum[row]),
                window=window,
                active_streak=int(self._active[row]),
                idle_streak=int(self._idle[row]),
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
            np.where(codes == CODE_MICE, 0.0, np.minimum(1.0, self._cum / self.tau)),
        )
        # Sequential sum in tracking order — bit-identical to the scalar
        # classifier's generator sum over the same operand sequence.
        return float(sum(likelihood.tolist()))

    def __len__(self) -> int:
        return self._flow_id.size



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
