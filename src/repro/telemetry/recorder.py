"""Deterministic flight recorder for simulator runs.

The trace layer (:mod:`repro.telemetry.trace`) answers "which code ran
and how long did it take"; the flight recorder answers "what did the
*network* do": per-switch egress queue depth / ECN-mark / PFC-pause
counters, aggregate per-QP DCQCN state (rate, alpha, CNP count) over
every host's RPs, and per-flow lifecycle records (start, size, completion -> FCT).

Design constraints, in order:

* **Bit-identical runs.**  Sampling is read-only and happens at monitor
  interval boundaries the engine already closes; the recorder never
  draws randomness, never schedules events, and never touches the
  wall clock (replint RL002), so engine digests are identical with the
  recorder on or off.
* **Bounded memory.**  Each series lives in a :class:`RingBuffer` with
  a fixed sample budget (:data:`SAMPLE_BUDGET`).  When the budget
  overflows the buffer halves itself and doubles its stride — a
  deterministic decimation that is a pure function of the number of
  samples offered, never of timing.
* **One-branch disabled cost.**  Like the trace emitter, the module
  keeps a global :data:`active` flag; when recording is off the hot
  path pays a single attribute test per closed interval.

Recordings are plain picklable dicts (:meth:`RunRecording.snapshot`),
so they ride the existing fork-merge protocol: pool workers attach
them to ``EvalResult`` and ``SweepExecutor`` prunes all but the
best-K before results reach user code.  A worker learns that the run
records from the telemetry session on its chunk message
(:func:`repro.telemetry.apply_session`); it never needs the path,
because only the parent writes the snapshot.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from . import trace

#: Schema version stamped into every snapshot.
RECORDING_VERSION = 1

#: Per-series sample budget of a :class:`RunRecording`.
SAMPLE_BUDGET = 512

#: Fast-path flag: ``True`` iff recording has been configured.  Hot
#: paths test this instead of calling a function.
active: bool = False

_record_path: Optional[str] = None


# ---------------------------------------------------------------------------
# Module-level enable/disable (mirrors trace.configure / trace.disable)
# ---------------------------------------------------------------------------


def configure(path: Optional[str] = None) -> None:
    """Enable recording; the final snapshot is written to ``path``.

    ``path=None`` records without a destination: a pool worker's
    snapshots travel back inside ``EvalResult``.
    """
    global active, _record_path
    _record_path = path
    active = True


def disable() -> None:
    """Turn recording off (safe to call when already off)."""
    global active, _record_path
    active = False
    _record_path = None


def record_path() -> Optional[str]:
    """Path the final snapshot will be written to, if recording."""
    return _record_path


# ---------------------------------------------------------------------------
# Ring buffer with deterministic stride decimation
# ---------------------------------------------------------------------------


class RingBuffer:
    """Fixed-budget sample buffer with stride-doubling decimation.

    A sample with index ``i`` (0-based, counted over *all* samples ever
    offered) is retained iff ``i % stride == 0``.  Whenever the number
    of retained samples would exceed the budget, every other retained
    sample is dropped and the stride doubles.  The retained set is
    therefore a pure function of the number of samples offered —
    independent of timing, process, or platform — and its size is
    bounded by the budget for any run length.
    """

    __slots__ = ("budget", "stride", "seen", "_rows")

    def __init__(self, budget: int) -> None:
        if budget < 2:
            raise ValueError("RingBuffer budget must be >= 2")
        self.budget = budget
        self.stride = 1
        self.seen = 0
        self._rows: List[Any] = []

    def admit(self) -> bool:
        """Account for one offered sample; True iff it should be kept.

        Split from :meth:`push` so callers can skip *building* the
        sample row entirely when it would be decimated away.
        """
        index = self.seen
        self.seen += 1
        return index % self.stride == 0

    def push(self, row: Any) -> None:
        """Retain an admitted sample, decimating on overflow."""
        self._rows.append(row)
        if len(self._rows) > self.budget:
            self._rows = self._rows[::2]
            self.stride *= 2

    def append(self, row: Any) -> None:
        """Offer one sample (admit + push)."""
        if self.admit():
            self.push(row)

    def rows(self) -> List[Any]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


# ---------------------------------------------------------------------------
# Per-run recording
# ---------------------------------------------------------------------------


class RunRecording:
    """Samples one network's dynamics at monitor-interval boundaries.

    One composite row is kept per admitted interval, so every time
    series in the snapshot decimates in lockstep and stays aligned on
    the shared time axis.
    """

    def __init__(self, network: Any, budget: int = SAMPLE_BUDGET,
                 weights: Optional[tuple] = None) -> None:
        self._network = network
        self._budget = budget
        self._samples = RingBuffer(self._budget)
        self.meta: Dict[str, Any] = {
            "version": RECORDING_VERSION,
            "n_hosts": len(network.hosts),
            "n_switches": len(network.switches),
            "budget": self._budget,
            "weights": list(weights) if weights is not None else None,
        }
        self._switch_names = [sw.name for sw in network.switches]

    def sample(self, stats: Any, measured_utility: float) -> None:
        """Record one closed monitor interval (read-only)."""
        if not self._samples.admit():
            return
        net = self._network
        qp = net.qp_sample()
        n = qp["n"]
        row = {
            "t": stats.t_end,
            "utility": measured_utility,
            "throughput_util": stats.throughput_util,
            "norm_rtt": stats.norm_rtt,
            "pfc_ok": stats.pfc_ok,
            "flows_completed": len(net.records),
            "qp_n": n,
            "rate_mean": (qp["rate_sum"] / n) if n else 0.0,
            "rate_min": qp["rate_min"] if n else 0.0,
            "alpha_mean": (qp["alpha_sum"] / n) if n else 0.0,
            "alpha_max": qp["alpha_max"] if n else 0.0,
            "cnps": qp["cnps"],
            "switches": [sw.telemetry_sample() for sw in net.switches],
        }
        self._samples.push(row)

    # -- snapshotting -------------------------------------------------

    def _flow_rows(self) -> List[Dict[str, Any]]:
        """Completed-flow records, stride-decimated to 4x the budget."""
        records = self._network.records
        limit = 4 * self._budget
        stride = 1
        while len(records) // stride > limit:
            stride *= 2
        return [rec.as_dict() for rec in records[::stride]]

    def snapshot(self) -> Dict[str, Any]:
        """Pivot the retained rows into a plain, picklable dict."""
        rows = self._samples.rows()
        flows = self._flow_rows()
        snap: Dict[str, Any] = {
            "meta": dict(self.meta),
            "samples": {
                "seen": self._samples.seen,
                "kept": len(rows),
                "stride": self._samples.stride,
            },
            "time": [r["t"] for r in rows],
            "network": {
                "utility": [r["utility"] for r in rows],
                "throughput_util": [r["throughput_util"] for r in rows],
                "norm_rtt": [r["norm_rtt"] for r in rows],
                "pfc_ok": [r["pfc_ok"] for r in rows],
                "flows_completed": [r["flows_completed"] for r in rows],
            },
            "qp": {
                "n": [r["qp_n"] for r in rows],
                "rate_mean": [r["rate_mean"] for r in rows],
                "rate_min": [r["rate_min"] for r in rows],
                "alpha_mean": [r["alpha_mean"] for r in rows],
                "alpha_max": [r["alpha_max"] for r in rows],
                "cnps": [r["cnps"] for r in rows],
            },
            "switches": {
                name: {
                    "queue_bytes": [r["switches"][i]["queue_bytes"] for r in rows],
                    "ecn_marked": [r["switches"][i]["ecn_marked"] for r in rows],
                    "pfc_pauses": [r["switches"][i]["pfc_pauses"] for r in rows],
                    "dropped": [r["switches"][i]["dropped"] for r in rows],
                }
                for i, name in enumerate(self._switch_names)
            },
            "flows": flows,
            "flows_total": len(self._network.records),
        }
        if trace.active:
            trace.event("record.snapshot", {
                "samples": len(rows),
                "seen": self._samples.seen,
                "stride": self._samples.stride,
                "flows": len(flows),
                "budget": self._budget,
            })
        return snap


# ---------------------------------------------------------------------------
# Snapshot persistence
# ---------------------------------------------------------------------------


def write_snapshot(recording: Dict[str, Any], path: Optional[str] = None) -> str:
    """Write a snapshot dict to ``path`` (default: the configured path)."""
    target = path if path is not None else _record_path
    if target is None:
        raise ValueError("no recording path configured; pass path=")
    parent = os.path.dirname(os.path.abspath(target))
    os.makedirs(parent, exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(recording, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return target


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read a snapshot previously written by :func:`write_snapshot`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
