"""Loop references for the per-interval close and the SA proposal.

:class:`LoopStatsCollector` is the interval close the simulator ran
before :class:`~repro.simulator.stats.StatsCollector` resolved its
counters at construction: every interval it walks the hosts, every RTT
sample and every device through their methods (``host.egress``,
``PauseState.paused_time_until_now``, ``Switch.total_paused_time``) and folds
each lane in a Python loop, with ``min``/``max`` clips.
:func:`two_clamp_mutate` is the SA proposal before ``mutate`` dropped
its second pass: each move clamps (:func:`min_max_clamp`, the knob
clamp through ``min``/``max``), then every knob is clamped again and
the marking ramp repaired.

The shipped code must agree with both bit for bit —
``tests/unit/test_stats.py`` and ``tests/unit/test_parameters.py``
compare them field by field, floats by ``repr``.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.ordered import ordered_sum
from repro.simulator.units import kb
from repro.tuning.parameters import ParameterSpace, ParameterSpec

#: The fields the close computes (the rest it hands over as they are).
CLOSE_FIELDS = (
    "t_start",
    "t_end",
    "throughput_util",
    "norm_rtt",
    "pfc_ok",
    "mean_rtt",
    "rtt_samples",
    "pause_fraction",
    "active_uplinks",
    "total_tx_bytes",
    "dropped_packets",
)


class LoopStatsCollector:
    """Closes the same intervals as ``network.stats``, one loop per lane.

    Built next to the network's own collector (at the same simulated
    time); it tees every host's RTT feed, so call :meth:`record_rtt`
    only for a sample the live collector does not see.
    """

    def __init__(self, network):
        self.network = network
        self._interval_start = network.sim.now
        self._uplink_tx_base = self._uplink_tx_now()
        self._pause_base = self._pause_now()
        self._drops_base = self._drops_now()
        self._base_rtts = network.spec.base_rtts
        self._rtt_samples: List[Tuple[float, int]] = []
        live = network.stats.record_rtt

        def tee(src: int, dst: int, rtt: float, hops: int) -> None:
            live(src, dst, rtt, hops)
            self.record_rtt(src, dst, rtt, hops)

        for host in network.hosts:
            host.on_rtt_sample = tee

    def record_rtt(self, src: int, dst: int, rtt: float, hops: int) -> None:
        self._rtt_samples.append((rtt, hops))

    def _uplink_tx_now(self) -> List[int]:
        return [
            host.egress.data_tx_bytes if host.egress else 0
            for host in self.network.hosts
        ]

    def _pause_now(self) -> List[float]:
        values = [
            h.egress.pause.paused_time_until_now() if h.egress else 0.0
            for h in self.network.hosts
        ]
        values.extend(s.total_paused_time() for s in self.network.switches)
        return values

    def _drops_now(self) -> int:
        return sum(s.dropped_packets for s in self.network.switches)

    def end_interval(self) -> dict:
        """The :data:`CLOSE_FIELDS` of the interval, and start the next."""
        now = self.network.sim.now
        duration = now - self._interval_start
        if duration <= 0:
            raise ValueError("end_interval called with zero-length interval")

        tx_now = self._uplink_tx_now()
        pause_now = self._pause_now()
        drops_now = self._drops_now()

        utils: List[float] = []
        total_tx = 0
        for host, base, cur in zip(self.network.hosts, self._uplink_tx_base, tx_now):
            delta = cur - base
            total_tx += delta
            if delta > 0 and host.egress is not None:
                capacity = host.egress.link.rate_bps * duration / 8.0
                utils.append(min(delta / capacity, 1.0))
        throughput_util = ordered_sum(utils) / len(utils) if utils else 0.0

        gammas: List[float] = []
        rtts: List[float] = []
        base_rtts = self._base_rtts
        for rtt, hops in self._rtt_samples:
            if rtt > 0:
                gammas.append(min(base_rtts[hops] / rtt, 1.0))
                rtts.append(rtt)
        norm_rtt = ordered_sum(gammas) / len(gammas) if gammas else 1.0
        mean_rtt = ordered_sum(rtts) / len(rtts) if rtts else 0.0

        pause_fracs = [
            max(cur - base, 0.0) / duration
            for base, cur in zip(self._pause_base, pause_now)
        ]
        pause_fraction = (
            ordered_sum(pause_fracs) / len(pause_fracs) if pause_fracs else 0.0
        )

        closed = {
            "t_start": self._interval_start,
            "t_end": now,
            "throughput_util": throughput_util,
            "norm_rtt": norm_rtt,
            "pfc_ok": max(0.0, 1.0 - pause_fraction),
            "mean_rtt": mean_rtt,
            "rtt_samples": len(self._rtt_samples),
            "pause_fraction": pause_fraction,
            "active_uplinks": len(utils),
            "total_tx_bytes": total_tx,
            "dropped_packets": drops_now - self._drops_base,
        }
        self._interval_start = now
        self._uplink_tx_base = tx_now
        self._pause_base = pause_now
        self._drops_base = drops_now
        self._rtt_samples = []
        return closed


def min_max_clamp(spec: ParameterSpec, value: float) -> float:
    """``ParameterSpec.clamp`` as it was, through ``min``/``max``."""
    value = min(max(value, spec.low), spec.high)
    if spec.integral:
        value = int(round(value))
        value = int(min(max(value, spec.low), spec.high))
    return value


def two_clamp_mutate(
    space: ParameterSpace,
    params: DcqcnParams,
    rng: random.Random,
    tp_probability: float,
    step_scale_range: tuple = (0.5, 1.0),
) -> DcqcnParams:
    """``ParameterSpace.mutate`` as it was: move and clamp every knob,
    rebuild the params, then clamp every knob again and repair."""
    values = params.as_dict()
    low, high = step_scale_range
    for name, spec in space.specs.items():
        toward_tp = rng.random() < tp_probability
        scale = rng.uniform(low, high)
        sign = int(spec.tp_direction) if toward_tp else -int(spec.tp_direction)
        values[name] = min_max_clamp(spec, values[name] + sign * spec.step * scale)
    values = DcqcnParams.from_dict(values).as_dict()
    for name, spec in space.specs.items():
        values[name] = min_max_clamp(spec, values[name])
    if values["k_min"] >= values["k_max"]:
        values["k_min"] = int(max(space.specs["k_min"].low, values["k_max"] - kb(8)))
    return DcqcnParams.from_dict(values)
