"""Drive a (network, tuner) pair through monitor intervals.

The runner is the glue every evaluation figure shares: it advances the
simulation one monitor interval ``λ_MI`` at a time, closes the metric
interval, hands the stats to the tuning scheme under test, and
dispatches whatever parameters the scheme returns — exactly the
closed loop of Fig. 1, with the controller's gRPC replaced by direct
calls (see :mod:`repro.rpc` for the socket version).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.simulator.flow import FlowRecord
from repro.simulator.network import Network
from repro.simulator.ordered import ordered_sum
from repro.simulator.packet import freelist_occupancy
from repro.simulator.stats import IntervalStats
from repro.simulator.units import ms
from repro.telemetry import recorder, trace
from repro.tuning.search import Tuner
from repro.tuning.utility import UtilityWeights, DEFAULT_WEIGHTS, utility


@dataclass
class ExperimentResult:
    """Everything a figure needs from one run."""

    tuner_name: str
    records: List[FlowRecord]
    intervals: List[IntervalStats]
    utilities: List[float]
    dispatches: int
    dropped_packets: int
    events: int
    #: Flight-recorder snapshot (plain dict) when recording was enabled.
    recording: Optional[dict] = None

    def mean_utility(self, skip: int = 0) -> float:
        values = self.utilities[skip:]
        return ordered_sum(values) / len(values) if values else 0.0

    def interval_series(self, attr: str) -> List[float]:
        """Time series of one IntervalStats attribute (e.g. for Fig 8)."""
        return [getattr(interval, attr) for interval in self.intervals]


class ExperimentRunner:
    """Runs one tuning scheme on one network for a fixed duration."""

    def __init__(
        self,
        network: Network,
        tuner: Tuner,
        monitor_interval: float = ms(1.0),
        weights: UtilityWeights = DEFAULT_WEIGHTS,
    ):
        if monitor_interval <= 0:
            raise ValueError("monitor_interval must be positive")
        self.network = network
        self.tuner = tuner
        self.monitor_interval = monitor_interval
        self.weights = weights
        self.intervals: List[IntervalStats] = []
        self.utilities: List[float] = []
        self.dispatches = 0
        self._attached = False
        self.recording: Optional[recorder.RunRecording] = None

    def run(self, duration: float, stop_when=None) -> ExperimentResult:
        """Run ``duration`` seconds of simulated time from now.

        ``stop_when`` (optional zero-argument callable) is checked at
        every monitor-interval boundary; returning True ends the run
        early — used by workloads with a natural completion point.
        """
        if not self._attached:
            self.tuner.attach(self.network)
            self._attached = True
        sim = self.network.sim
        end_time = sim.now + duration
        events_base = sim.events_dispatched
        if recorder.active and self.recording is None:
            self.recording = recorder.RunRecording(
                self.network,
                weights=(self.weights.w_tp, self.weights.w_rtt, self.weights.w_pfc),
            )
        while sim.now < end_time - 1e-12:
            if stop_when is not None and stop_when():
                break
            target = min(sim.now + self.monitor_interval, end_time)
            self.network.run_until(target)
            stats = self.network.stats.end_interval()
            self.intervals.append(stats)
            measured = utility(stats, self.weights)
            self.utilities.append(measured)
            if self.recording is not None:
                self.recording.sample(stats, measured)
            if trace.active:
                engine = sim.telemetry_snapshot()
                trace.event(
                    "engine.interval",
                    {
                        **stats.snapshot(),
                        "utility": measured,
                        "events": engine["events_dispatched"] - events_base,
                        "heap": engine["heap_size"],
                        "cancelled": engine["cancelled_pending"],
                        "compactions": engine["compactions"],
                        "freelist": freelist_occupancy(),
                    },
                )
                events_base = engine["events_dispatched"]
            new_params = self.tuner.on_interval(stats)
            if new_params is not None:
                self.network.set_all_params(new_params)
                self.dispatches += 1
        return self.result()

    def result(self) -> ExperimentResult:
        return ExperimentResult(
            tuner_name=self.tuner.name,
            records=list(self.network.records),
            intervals=list(self.intervals),
            utilities=list(self.utilities),
            dispatches=self.dispatches,
            dropped_packets=self.network.total_dropped_packets(),
            events=self.network.sim.events_dispatched,
            recording=(
                self.recording.snapshot() if self.recording is not None else None
            ),
        )


@contextlib.contextmanager
def profile_capture(path: Optional[str]):
    """cProfile the enclosed block and dump stats to ``path``.

    No-op when ``path`` is falsy, so callers can wrap unconditionally:
    ``with profile_capture(args.profile): ...``.  The dump is readable
    with ``python -m pstats PATH`` (or snakeviz, if installed); for
    deterministic per-span attribution use the trace layer's
    self-time summary instead.
    """
    if not path:
        yield None
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        profiler.dump_stats(path)
