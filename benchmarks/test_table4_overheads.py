"""Table IV: Paraleon system overheads.

Paper numbers (testbed): switch control plane 20.3% CPU, centralized
controller 3.2% CPU, 9.5 MB control-plane memory, and per-interval
transfers of ~520 B (switch -> controller), ~12 B (RNIC -> controller)
and ~76 B (controller -> devices).

Reproduction: we measure the same quantities in this implementation —
wall-clock cost of one switch-agent update and one controller interval
(KL + SA step) relative to the 1 ms monitor interval, the control
plane's memory footprint, and the exact wire sizes of the three
message types.  These are real microbenchmarks (multiple rounds), not
single-shot experiment runs.
"""

from __future__ import annotations

import random
import sys

from conftest import emit

from repro.core.config import ParaleonConfig
from repro.core.controller import ParaleonController
from repro.telemetry.tables import format_table
from repro.monitor.agent import SwitchAgent
from repro.monitor.aggregate import FsdAggregator
from repro.monitor.states import SlidingWindowClassifier
from repro.rpc import (
    ParamUpdate,
    RnicReport,
    SwitchReport,
    message_wire_size,
)
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.stats import IntervalStats
from repro.simulator.topology import ClosSpec
from repro.simulator.units import kb, mb, ms
from repro.tuning.annealing import ImprovedAnnealer
from repro.tuning.parameters import default_params, default_space


def _interval_stats(t: float) -> IntervalStats:
    return IntervalStats(
        t_start=t - 1e-3, t_end=t, throughput_util=0.5, norm_rtt=0.8,
        pfc_ok=1.0, mean_rtt=1e-5, rtt_samples=20, pause_fraction=0.0,
        active_uplinks=8, total_tx_bytes=10_000,
    )


def _loaded_agent() -> SwitchAgent:
    """A switch agent tracking a realistic number of flows."""
    net = Network(NetworkConfig(spec=ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=2)))
    agent = SwitchAgent(net.tors[0], tau=kb(100.0))
    rng = random.Random(5)
    for _ in range(5):
        interval = {fid: rng.randrange(1, 200_000) for fid in range(200)}
        agent.classifier.update(interval)
    return agent


def test_table4_switch_agent_update_cost(benchmark):
    agent = _loaded_agent()
    rng = random.Random(6)

    def one_interval():
        for fid in range(0, 200, 2):
            agent.sketch.insert(fid, rng.randrange(1, 50_000))
        agent.collect(0.001)

    benchmark(one_interval)
    mean = benchmark.stats.stats.mean
    emit(
        "table4_switch_agent",
        f"Switch control-plane update: {mean * 1e6:.1f} us per 1 ms "
        f"monitor interval = {mean / ms(1.0) * 100:.2f}% of one core "
        f"(paper: 20.3% CPU)",
    )
    # One update fits inside a monitor interval (~0.5 ms on an idle
    # core; the generous bound keeps the check meaningful even when
    # the benchmark suite shares the machine with other work).
    assert mean < 4 * ms(1.0)


class _PrecomputedAgent:
    """Replays precomputed local reports: the controller benchmark must
    not re-measure switch-side work (that is the other Table IV row)."""

    def __init__(self, source: SwitchAgent, count: int = 8):
        self._reports = []
        rng = random.Random(9)
        for _ in range(count):
            for fid in range(0, 200, 2):
                source.sketch.insert(fid, rng.randrange(1, 50_000))
            self._reports.append(source.collect(0.001))
        self._i = 0

    def collect(self, now):
        self._i = (self._i + 1) % len(self._reports)
        return self._reports[self._i]


def test_table4_controller_interval_cost(benchmark):
    """KL computation + SA mutation + acceptance per interval.

    Switch-side sketch reads/state updates are excluded — they are the
    "switch control plane" row; here agents replay precomputed local
    reports so only merge + KL + SA + dispatch are measured.
    """
    config = ParaleonConfig()
    agents = [_PrecomputedAgent(_loaded_agent()) for _ in range(4)]
    aggregator = FsdAggregator(agents)
    annealer = ImprovedAnnealer(default_space(), config.schedule, random.Random(0))
    controller = ParaleonController(config, aggregator, annealer, default_params())
    clock = {"t": 1e-3}

    def one_interval():
        clock["t"] += 1e-3
        controller.on_interval(_interval_stats(clock["t"]))

    benchmark(one_interval)
    mean = benchmark.stats.stats.mean
    emit(
        "table4_controller",
        f"Centralized controller interval (KL + SA + dispatch): "
        f"{mean * 1e6:.1f} us per 1 ms interval = "
        f"{mean / ms(1.0) * 100:.2f}% of one core (paper: 3.2% CPU)",
    )
    assert mean < ms(1.0)  # ~60 us on an idle core


def test_table4_memory_and_transfer(benchmark):
    def measure():
        agent = _loaded_agent()
        sketch_bytes = agent.sketch.memory_bytes()
        # Rough control-plane footprint: per-flow state entries.
        classifier_bytes = len(agent.classifier.flows) * (
            sys.getsizeof(next(iter(agent.classifier.flows.values())))
            + 200  # window deque + dict slot overhead, order of magnitude
        )
        switch_report = SwitchReport(0, 0.0, 1e6, 0.0, 3.0, 150,
                                     histogram=[0.0] * 31)
        rnic_report = RnicReport(0, 0.0, 1e-5, 0.0)
        update = ParamUpdate(0.0, default_params())
        return {
            "sketch SRAM (data plane)": f"{sketch_bytes / 1024:.1f} KiB",
            "flow-state memory (control plane)": f"{classifier_bytes / 1024:.1f} KiB",
            "switch -> controller": f"{message_wire_size(switch_report)} B (paper ~520 B)",
            "RNIC -> controller": f"{message_wire_size(rnic_report)} B (paper ~12 B)",
            "controller -> devices": f"{message_wire_size(update)} B (paper ~76 B)",
        }

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "table4_memory_transfer",
        format_table(
            ["quantity", "measured"],
            [[k, v] for k, v in rows.items()],
            title="Table IV (this implementation): memory & data transfer",
        ),
    )

    switch_b = message_wire_size(SwitchReport(0, 0.0, 0.0, 0.0, 0.0, 0))
    rnic_b = message_wire_size(RnicReport(0, 0.0, 0.0, 0.0))
    update_b = message_wire_size(ParamUpdate(0.0, default_params()))
    # Same ordering and order of magnitude as Table IV.
    assert rnic_b < update_b < switch_b
    assert switch_b < 1000
    # Control-plane memory is megabytes at most, like the paper's 9.5 MB.
    agent = _loaded_agent()
    assert agent.sketch.memory_bytes() < mb(10.0)
