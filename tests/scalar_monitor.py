"""The scalar monitor pipeline: the oracle for the columnar data plane.

``src/`` ships one monitor data plane: every switch buffers its
observations and flushes them through ``observe_batch``, sketches are
read as arrays, the ternary flow table is columnar and every FSD comes
out of one kernel.  This module writes the same pipeline one packet,
one dict entry and one flow object at a time, and the tests hold the
shipped path to it bit for bit:

* :func:`fmix32` and :func:`hash32` — the sketch hash over one Python
  int, and :class:`CountMin` — the count-min insert and query one key
  at a time;
* :func:`insert_packets` — the Elastic Sketch bucket rule one packet
  at a time, written straight into a sketch's registers
  (:func:`registers`), and :class:`PerPacketSketch`, a measurement
  point whose ``observe_batch`` applies it;
* :func:`query`, :func:`read_heavy_arrays` and :func:`unattributed_bytes`
  — one sketch's per-flow estimate, resident read and Light-Part residue;
* :func:`light_bytes` and :func:`stored_bytes` — the bytes a count-min
  table and an Elastic Sketch hold, read off their registers;
* :func:`read_heavy`, :func:`read_and_reset`, :func:`netflow_read_and_reset`
  — the dict forms of the sketch and NetFlow reads;
* :class:`FlowStateEntry` and :class:`SlidingWindowClassifier` — the
  Fig. 3 rules applied flow by flow;
* :func:`from_entries` — an FSD from classifier entries, and
  :func:`fsd_from_sizes` — the single-interval rule as a loop;
* :class:`ColumnarView` — the shipped columnar table with the
  mapping-based views of the scalar classifier;
* :class:`ScalarReferenceAgent` — a ``SwitchAgent`` twin built from the
  scalar pieces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.monitor.agent import LocalReport
from repro.monitor.fsd import HISTOGRAM_BUCKETS, FlowSizeDistribution
from repro.monitor.states import (
    CODE_ELEPHANT,
    CODE_MICE,
    CODE_OF_STATE,
    STATE_OF_CODE,
    ColumnarSlidingWindowClassifier,
    TernaryState,
    check_knobs,
)
from repro.simulator.units import mb
from repro.sketch.elastic import ElasticSketch, ElasticSketchConfig
from repro.sketch.hashing import hash_family_seeds
from repro.sketch.netflow import NetFlowMonitor

# ---------------------------------------------------------------------------
# Data plane: the per-packet sketch rule
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF


def fmix32(h: int) -> int:
    """MurmurHash3 32-bit finalizer over a Python int."""
    h &= _MASK32
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def hash32(key: int, seed: int = 0) -> int:
    """``key`` hashed to 32 bits under ``seed``: the function
    ``hash32_mixed(keys, mix_seed(seeds))`` computes in uint32 lanes."""
    # The seed goes through the finalizer first so related seeds give
    # unrelated hash functions.
    return fmix32(key ^ fmix32(seed * 0x9E3779B9 + 0x165667B1))


class CountMin:
    """A count-min's per-key insert and query over one ``(depth,
    width)`` table: the rule ``insert_stacked``/``query_stacked`` equal."""

    def __init__(self, table: np.ndarray, seed: int):
        self.table = table
        self.width = table.shape[1]
        self.seeds = hash_family_seeds(len(table), seed=seed ^ 0xC0117E)

    def insert(self, key: int, value: int) -> None:
        if value < 0:
            raise ValueError("value must be >= 0")
        for row, seed in zip(self.table, self.seeds):
            row[hash32(key, seed) % self.width] += value

    def query(self, key: int) -> int:
        return int(
            min(row[hash32(key, seed) % self.width] for row, seed in zip(self.table, self.seeds))
        )


def registers(sketch: ElasticSketch) -> Tuple[np.ndarray, ...]:
    """Views of ``sketch``'s registers in its stack: the Heavy Part's
    flow id, vote+, vote- and flag columns, and the Light Part table."""
    stack, slot = sketch.stack, sketch.slot
    rows = slice(slot * stack.n_buckets, (slot + 1) * stack.n_buckets)
    return stack.flow_id[rows], stack.pos[rows], stack.neg[rows], stack.flag[rows], stack.light[slot]


def light(sketch: ElasticSketch) -> CountMin:
    """``sketch``'s Light Part as a per-key count-min."""
    return CountMin(sketch.stack.light[sketch.slot], sketch.config.seed ^ 0x119447)


def bucket(config: ElasticSketchConfig, flow_id: int) -> int:
    """The Heavy Part bucket of ``flow_id`` in a sketch of ``config``."""
    return hash32(flow_id, config.seed ^ 0x4EA71) % config.heavy_buckets


def insert_packets(sketch: ElasticSketch, packets: Iterable[Tuple[int, int]]) -> None:
    """Insert ``(flow_id, nbytes)`` packets one at a time: the Elastic
    Sketch bucket rule, which ``ElasticStack``'s batch kernel equals."""
    fids, pos, neg, flag, _ = registers(sketch)
    config = sketch.config
    cm = light(sketch)
    stack, slot = sketch.stack, sketch.slot
    for flow_id, nbytes in packets:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if flow_id < 0:
            raise ValueError("flow_id must be >= 0")
        # Every write is marked for the clear, as the stack's own are.
        stack.written = True
        index = bucket(config, flow_id)
        resident = fids[index]
        if resident < 0:
            fids[index] = flow_id
            pos[index] = nbytes
            neg[index] = 0
            flag[index] = False
        elif resident == flow_id:
            pos[index] += nbytes
        else:
            # Collision: vote against the resident.
            neg[index] += nbytes
            positive = pos[index]
            if positive > 0 and neg[index] >= config.ostracism_lambda * positive:
                # Ostracism: flush the resident to the Light Part and
                # seat the challenger with its flag raised.
                cm.insert(int(resident), int(positive))
                stack.light_dirty[slot] = True
                fids[index] = flow_id
                pos[index] = nbytes
                neg[index] = 0
                flag[index] = True
                sketch.evictions += 1
            else:
                cm.insert(flow_id, nbytes)
                stack.light_dirty[slot] = True


class PerPacketSketch:
    """Measurement point that inserts a flushed batch one packet at a time."""

    def __init__(self, sketch: ElasticSketch):
        self.sketch = sketch

    def observe_batch(self, flow_ids: np.ndarray, wire_bytes: np.ndarray) -> None:
        insert_packets(self.sketch, zip(flow_ids.tolist(), wire_bytes.tolist()))


def query(sketch: ElasticSketch, flow_id: int) -> int:
    """Estimated bytes of ``flow_id`` since the last register clear: its
    Heavy-Part votes if resident (plus its Light-Part count when
    flagged), else its Light-Part count."""
    fids, pos, _, flag, _ = registers(sketch)
    index = bucket(sketch.config, flow_id)
    if fids[index] == flow_id:
        estimate = int(pos[index])
        if flag[index]:
            estimate += light(sketch).query(flow_id)
        return estimate
    return light(sketch).query(flow_id)


def read_heavy_arrays(sketch: ElasticSketch) -> Tuple[np.ndarray, np.ndarray]:
    """``(flow_ids, estimates)`` of every Heavy Part resident, in bucket
    order, without clearing: the stack's read of this one member."""
    _, ids, estimates, _ = sketch.stack.read(sketch.slot, sketch.slot + 1)
    return ids, estimates


def light_bytes(table: np.ndarray) -> int:
    """Bytes inserted into a count-min ``(depth, width)`` table since
    its last clear.

    Every insert adds its value to exactly one cell of each row, so
    each row sums to the same total; this asserts that and returns it.
    """
    rows = table.sum(axis=1).tolist()
    assert len(set(rows)) == 1, f"count-min rows disagree: {rows}"
    return rows[0]


def stored_bytes(sketch: ElasticSketch) -> int:
    """Bytes inserted into ``sketch`` since its last register clear.

    Each inserted byte sits in exactly one place: its resident's
    ``vote+``, or the Light Part (a collider's bytes, or an ostracized
    resident's ``vote+``).  ``vote-`` only re-counts colliders' bytes.
    """
    _, pos, _, _, table = registers(sketch)
    return int(pos.sum()) + light_bytes(table)


def unattributed_bytes(sketch: ElasticSketch) -> int:
    """Bytes in the Light Part not claimed by a flagged resident."""
    fids, _, _, flag, table = registers(sketch)
    cm = light(sketch)
    claimed = sum(cm.query(flow_id) for flow_id in fids[(fids >= 0) & flag].tolist())
    return max(light_bytes(table) - claimed, 0)


def read_heavy(sketch: ElasticSketch) -> Dict[int, int]:
    """Per-flow byte estimates for all Heavy Part residents."""
    ids, estimates = read_heavy_arrays(sketch)
    return dict(zip(ids.tolist(), estimates.tolist()))


def read_and_reset(sketch: ElasticSketch) -> Dict[int, int]:
    """:func:`read_heavy`, then clear the sketch."""
    ids, estimates = sketch.read_and_reset_arrays()
    return dict(zip(ids.tolist(), estimates.tolist()))


def netflow_read_and_reset(monitor: NetFlowMonitor) -> Dict[int, int]:
    """Export the flow cache now, whatever the export interval."""
    result = dict(monitor._cache)
    monitor._cache = {}
    return result


# ---------------------------------------------------------------------------
# Control plane: the Fig. 3 rules flow by flow
# ---------------------------------------------------------------------------


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
    """Per-switch flow state tracker over a dict of :class:`FlowStateEntry`.

    Call :meth:`update` once per monitor interval with the byte counts
    read (and reset) from the local sketch.
    """

    def __init__(self, tau: int = mb(1.0), delta: int = 3):
        check_knobs(tau, delta)
        self.tau = tau
        self.delta = delta
        self.flows: Dict[int, FlowStateEntry] = {}
        self.expired_total = 0

    def update(self, interval_bytes: Mapping[int, int]) -> Dict[int, FlowStateEntry]:
        """Advance one monitor interval; absent flows moved nothing."""
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


class ColumnarView(ColumnarSlidingWindowClassifier):
    """The shipped columnar table, advanced from a mapping and read back
    as :class:`FlowStateEntry` objects like :class:`SlidingWindowClassifier`."""

    def update(self, interval_bytes: Mapping[int, int]) -> None:
        n = len(interval_bytes)
        self.update_arrays(
            np.fromiter(interval_bytes.keys(), dtype=np.int64, count=n),
            np.fromiter(interval_bytes.values(), dtype=np.int64, count=n),
        )

    def entries(self) -> Dict[int, FlowStateEntry]:
        """Every group's rows as entries, in table order."""
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
        _, cum, codes = self.snapshot_columns()
        likelihood = np.where(
            codes == CODE_ELEPHANT,
            1.0,
            np.where(codes == CODE_MICE, 0.0, np.minimum(1.0, cum / self.tau)),
        )
        # Sequential sum in tracking order, as the scalar classifier's
        # generator sum adds the same operands.
        return float(sum(likelihood.tolist()))

    def __len__(self) -> int:
        return self._rows.shape[1]


def assert_same_table(scalar: SlidingWindowClassifier, columnar: ColumnarView) -> None:
    """Same flows in the same order, same per-flow state, windows and
    streaks, and bit-identical summaries."""
    scalar_entries = scalar.flows
    columnar_entries = columnar.entries()
    assert list(columnar_entries) == list(scalar_entries)
    for flow_id, expected in scalar_entries.items():
        got = columnar_entries[flow_id]
        assert got.state is expected.state
        assert got.cumulative_bytes == expected.cumulative_bytes
        assert list(got.window) == list(expected.window)
        assert got.active_streak == expected.active_streak
        assert got.idle_streak == expected.idle_streak
        assert got.intervals_seen == expected.intervals_seen
    assert len(columnar) == len(scalar)
    assert columnar.expired_total == scalar.expired_total
    assert columnar.state_counts() == scalar.state_counts()
    # Bit-identical, not approximately equal: same operand order, same ops.
    assert columnar.elephant_weight() == scalar.elephant_weight()


# ---------------------------------------------------------------------------
# Flow size distributions
# ---------------------------------------------------------------------------


def from_entries(
    entries: Iterable[FlowStateEntry], tau: int = mb(1.0)
) -> FlowSizeDistribution:
    """An FSD from classifier entries, in iteration order."""
    entries = list(entries)
    n = len(entries)
    return FlowSizeDistribution.from_columns(
        np.fromiter((e.flow_id for e in entries), dtype=np.int64, count=n),
        np.fromiter((e.cumulative_bytes for e in entries), dtype=np.int64, count=n),
        np.fromiter((CODE_OF_STATE[e.state] for e in entries), dtype=np.int8, count=n),
        tau=tau,
    )


def _bucket_index(nbytes: int) -> int:
    if nbytes < 1:
        return 0
    return min(int(math.log2(nbytes)), HISTOGRAM_BUCKETS - 1)


def fsd_from_sizes(sizes: Mapping[int, int], tau: int = mb(1.0)) -> FlowSizeDistribution:
    """The single-interval rule flow by flow: E iff ``size >= τ``,
    zero-byte flows dropped, one histogram count per flow."""
    histogram = [0.0] * HISTOGRAM_BUCKETS
    elephant = 0.0
    mice = 0.0
    states: Dict[int, TernaryState] = {}
    for flow_id, size in sizes.items():
        if size <= 0:
            continue
        if size >= tau:
            elephant += 1.0
            states[flow_id] = TernaryState.ELEPHANT
        else:
            mice += 1.0
            states[flow_id] = TernaryState.MICE
        histogram[_bucket_index(size)] += 1.0
    return FlowSizeDistribution(
        elephant_weight=elephant,
        mice_weight=mice,
        histogram=tuple(histogram),
        flow_states=states,
    )


# ---------------------------------------------------------------------------
# Agent
# ---------------------------------------------------------------------------


class ScalarReferenceAgent:
    """The Fig. 3 pipeline one packet and one dict entry at a time.

    Same constructor as ``SwitchAgent``; the switch's observation buffer
    drains into :class:`PerPacketSketch`.
    """

    def __init__(
        self, switch, sketch_config=None, tau=mb(1.0), delta=3, dedup_marking=True
    ):
        self.switch = switch
        self.sketch = ElasticSketch(
            sketch_config or ElasticSketchConfig(seed=switch.switch_id)
        )
        self.classifier = SlidingWindowClassifier(tau=tau, delta=delta)
        self.tau = tau
        switch.measurement = PerPacketSketch(self.sketch)
        switch.dedup_marking = dedup_marking

    def collect(self, now: float) -> LocalReport:
        self.switch.flush_observations()
        interval_bytes = read_and_reset(self.sketch)
        self.classifier.update(interval_bytes)
        return LocalReport(
            switch_name=self.switch.name,
            fsd=from_entries(self.classifier.flows.values(), tau=self.tau),
            tracked_flows=len(self.classifier),
            interval_bytes=sum(interval_bytes.values()),
        )
