"""Per-monitor-interval runtime metrics.

The Paraleon controller consumes three network-wide signals per monitor
interval ``λ_MI`` (Section III-C):

* ``O_TP`` — mean bandwidth utilization of *active* host uplinks;
* ``O_RTT`` — mean Swift-style normalized RTT (base path delay divided
  by measured RTT, clipped to 1).  The base delay is a fabric constant
  per hop class (:attr:`~repro.simulator.topology.ClosSpec.base_rtts`),
  looked up by the switch hops each probe carries back;
* ``O_PFC`` — ``1 − mean fraction of the interval devices spent
  PFC-paused``.

:class:`StatsCollector` snapshots cumulative device counters at
interval boundaries and differences them, and also keeps the
ground-truth per-flow byte counts for the interval — the oracle flow
size distribution that monitoring-accuracy experiments (Fig. 10/11)
compare sketches against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.simulator.ordered import ordered_sum

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.network import Network


@dataclass
class IntervalStats:
    """Metrics for one monitor interval."""

    t_start: float
    t_end: float
    throughput_util: float        # O_TP in [0, 1]
    norm_rtt: float               # O_RTT in (0, 1]
    pfc_ok: float                 # O_PFC in [0, 1]
    mean_rtt: float               # raw mean RTT (s); 0 if no samples
    rtt_samples: int
    pause_fraction: float         # mean paused fraction across devices
    active_uplinks: int
    total_tx_bytes: int           # across host uplinks
    # Oracle FSD: bytes per flow id.  The stats object owns this dict —
    # the collector hands its interval table over and starts a new one.
    flow_bytes: Dict[int, int] = field(default_factory=dict)
    dropped_packets: int = 0
    # Flows that completed during this interval.  Deliberately absent
    # from snapshot() (and therefore from traces, persistence, and the
    # interval digest) — only the flight recorder reads it.
    completed_flows: int = 0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def snapshot(self) -> dict:
        """Plain-dict view of this interval (no oracle flow table).

        The single serialization of an interval: the utility function
        accepts it, the trace emitter writes it, and
        :mod:`repro.experiments.persistence` persists it — so the
        per-interval field list lives in exactly one place.
        """
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "throughput_util": self.throughput_util,
            "norm_rtt": self.norm_rtt,
            "pfc_ok": self.pfc_ok,
            "mean_rtt": self.mean_rtt,
            "rtt_samples": self.rtt_samples,
            "pause_fraction": self.pause_fraction,
            "active_uplinks": self.active_uplinks,
            "total_tx_bytes": self.total_tx_bytes,
            "dropped_packets": self.dropped_packets,
        }


class StatsCollector:
    """Interval-based metric collection over a :class:`Network`."""

    def __init__(self, network: "Network"):
        self.network = network
        self._interval_start = network.sim.now
        # The fabric is wired before its collector is built, so every
        # counter an interval reads is resolved here once: each host
        # uplink with its line rate (a host without one sends nothing),
        # each device's egress pause states (hosts, then switches).
        self._uplinks = [host.egress for host in network.hosts if host.egress]
        self._uplink_rates = [egress.link.rate_bps for egress in self._uplinks]
        self._pause_states = [
            (host.egress.pause,) if host.egress is not None else ()
            for host in network.hosts
        ] + [tuple(egress.pause for egress in s.egress) for s in network.switches]
        self._switches = network.switches
        self._uplink_tx_base: List[int] = self._uplink_tx_now()
        self._pause_base: List[float] = self._pause_now(self._interval_start)
        self._drops_base = self._drops_now()
        # O_RTT's base path delay by hop class, read once per fabric.
        self._base_rtts = network.spec.base_rtts
        self._rtt_samples: List[Tuple[float, int]] = []
        # The open interval's oracle table, flow id -> payload bytes
        # delivered; the destination hosts add to it as packets land
        # (``Host.receive``), and ``end_interval`` hands it over.
        self.flow_bytes: Dict[int, int] = {}
        self._completed_flows = 0
        self.history: List[IntervalStats] = []

    # -- feeds from the network ----------------------------------------

    def record_rtt(self, src: int, dst: int, rtt: float, hops: int) -> None:
        # ``hops`` is the probe's switch-hop count, i.e. its hop class.
        self._rtt_samples.append((rtt, hops))

    def record_flow_complete(self) -> None:
        self._completed_flows += 1

    # -- snapshots -------------------------------------------------------

    def _uplink_tx_now(self) -> List[int]:
        # Data bytes only: control chatter (CNPs, probe acks) must not
        # make an idle uplink look "active" to O_TP.
        return [egress.data_tx_bytes for egress in self._uplinks]

    def _pause_now(self, now: float) -> List[float]:
        # Each device's ``paused_time_until_now`` over its ports, added
        # left to right from 0.0 as ``Switch.total_paused_time`` does.
        totals = [0.0] * len(self._pause_states)
        for i, states in enumerate(self._pause_states):
            total = 0.0
            for pause in states:
                if pause.paused:
                    total += pause.total_paused_time + (now - pause.paused_since)
                else:
                    total += pause.total_paused_time
            totals[i] = total
        return totals

    def _drops_now(self) -> int:
        return sum([s.dropped_packets for s in self._switches])

    def snapshot(self) -> Optional[dict]:
        """The most recently closed interval as a plain dict.

        None until the first :meth:`end_interval`.
        """
        return self.history[-1].snapshot() if self.history else None

    # -- interval boundary -------------------------------------------------

    def end_interval(self) -> IntervalStats:
        """Close the current interval and start the next one."""
        now = self.network.sim.now
        duration = now - self._interval_start
        if duration <= 0:
            raise ValueError("end_interval called with zero-length interval")

        tx_now = self._uplink_tx_now()
        pause_now = self._pause_now(now)
        drops_now = self._drops_now()

        # Each lane is one comprehension; ``min``/``max`` against a
        # constant are spelled as the conditional they evaluate to.
        total_tx = sum(tx_now) - sum(self._uplink_tx_base)
        utils = [
            1.0 if (util := delta / (rate * duration / 8.0)) > 1.0 else util
            for rate, base, cur in zip(self._uplink_rates, self._uplink_tx_base, tx_now)
            if (delta := cur - base) > 0
        ]
        throughput_util = ordered_sum(utils) / len(utils) if utils else 0.0

        base_rtts = self._base_rtts
        samples = self._rtt_samples
        gammas = [
            1.0 if (gamma := base_rtts[hops] / rtt) > 1.0 else gamma
            for rtt, hops in samples
            if rtt > 0
        ]
        rtts = [rtt for rtt, _ in samples if rtt > 0]
        norm_rtt = ordered_sum(gammas) / len(gammas) if gammas else 1.0
        mean_rtt = ordered_sum(rtts) / len(rtts) if rtts else 0.0

        pause_fracs = [
            (0.0 if (paused := cur - base) < 0.0 else paused) / duration
            for base, cur in zip(self._pause_base, pause_now)
        ]
        pause_fraction = (
            ordered_sum(pause_fracs) / len(pause_fracs) if pause_fracs else 0.0
        )
        pfc_ok = 1.0 - pause_fraction

        stats = IntervalStats(
            t_start=self._interval_start,
            t_end=now,
            throughput_util=throughput_util,
            norm_rtt=norm_rtt,
            pfc_ok=pfc_ok if pfc_ok > 0.0 else 0.0,
            mean_rtt=mean_rtt,
            rtt_samples=len(samples),
            pause_fraction=pause_fraction,
            active_uplinks=len(utils),
            total_tx_bytes=total_tx,
            flow_bytes=self.flow_bytes,
            dropped_packets=drops_now - self._drops_base,
            completed_flows=self._completed_flows,
        )
        self.history.append(stats)

        # Roll the window.
        self._interval_start = now
        self._uplink_tx_base = tx_now
        self._pause_base = pause_now
        self._drops_base = drops_now
        self._rtt_samples = []
        self.flow_bytes = {}
        self._completed_flows = 0
        return stats
