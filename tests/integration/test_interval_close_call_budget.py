"""Calls per interval outside the monitor: a fixed budget.

Every monitor interval the data plane closes its runtime metrics
(``StatsCollector.end_interval``: ``O_TP``, ``O_RTT``, ``O_PFC``) and
the tuner turns them into a decision (``on_interval``: utility, SA
feedback and proposal).  Like the monitor's close
(``test_monitor_call_budget.py``, whose counting rule this file
shares: a call counts at its caller when that caller's frame is in
``repro/``), these cost what their calls cost, so the number of calls
is what this file holds to a budget.

* The interval close on the des-alltoall fabric (``medium``, 16-host
  all-to-all elephants, a frozen setting) must not depend on how many
  RTT samples the interval holds: halving the probe interval roughly
  doubles them and must not add a call.
* The quick Paraleon influx run (the loop-influx benchmark workload at
  its quick size) holds ``end_interval`` plus ``on_interval``, without
  ``FsdAggregator.collect`` (the monitor budget's), to a budget.

With the close as one Python loop per lane, reading every device
through its methods, and a second clamp pass in every SA proposal,
these read 673.8 calls per close (~156 RTT samples per interval; 1151.4
at ~315) and 576.8 calls per interval (CPython 3.11, numpy 2.4).  With
the counters resolved at construction, one comprehension per lane and
one clamp per knob they read 29 for every close at either probe
interval and 151.9.  The influx decision then fell to 124.75 when
``kl_divergence`` folded its terms through ``map``: the profiler does
not see the 31 ``math.log`` calls that ``map`` makes from C, so most of
that drop is calls moved out of its sight; in wall time the KL reads
11.6 → 11.1 µs in a standalone replay of seed 7's loop-influx closes
(2-vCPU Xeon, same process, alternating).  The budgets add ~10 % for other numpy
and CPython versions.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import repro
from repro.core.paraleon import ParaleonSystem
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import install_influx, make_network, make_tuner
from repro.monitor.aggregate import FsdAggregator
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.stats import StatsCollector
from repro.simulator.topology import SPECS
from repro.simulator.units import mb, us
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce

CLOSE_CALLS_BUDGET = 32
INFLUX_CALLS_PER_INTERVAL_BUDGET = 137

_REPRO = str(Path(repro.__file__).resolve().parent)


class _Counter:
    """Counts calls made from ``repro/`` frames while it is switched on."""

    def __init__(self):
        self.per_interval = []

    def _profile(self, frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(_REPRO):
                self.per_interval[-1] += 1
        elif event == "c_call" and frame.f_code.co_filename.startswith(_REPRO):
            self.per_interval[-1] += 1

    def counted(self, method, new_interval):
        counter = self

        def wrapper(*args, **kwargs):
            if new_interval:
                counter.per_interval.append(0)
            sys.setprofile(counter._profile)
            try:
                return method(*args, **kwargs)
            finally:
                sys.setprofile(None)

        return wrapper

    def paused(self, method):
        counter = self

        def wrapper(*args, **kwargs):
            sys.setprofile(None)
            try:
                return method(*args, **kwargs)
            finally:
                sys.setprofile(counter._profile)

        return wrapper

    def run(self, body):
        # A collection mid-close could call finalizers of other objects.
        gc.collect()
        gc.disable()
        try:
            body()
        finally:
            gc.enable()
        return self.per_interval


def _close_calls(monkeypatch, probe_interval):
    """Calls per ``end_interval`` over 5 ms of the des-alltoall run, and
    the RTT samples the run's intervals held."""
    counter = _Counter()
    # Undone on return: a second run must wrap the real close, not this
    # run's wrapper (whose counter would take the second run's calls).
    with monkeypatch.context() as patch:
        patch.setattr(
            StatsCollector,
            "end_interval",
            counter.counted(StatsCollector.end_interval, new_interval=True),
        )
        config = NetworkConfig(
            spec=SPECS["medium"], seed=1, probe_interval=probe_interval
        )
        network = Network(config)
        AllToAllOnce(n_workers=16, flow_size=mb(2.0)).install(network)
        runner = ExperimentRunner(network, StaticTuner(default_params(), "default"))
        per_close = counter.run(lambda: runner.run(0.005))
    assert len(per_close) == 5
    return per_close, sum(stats.rtt_samples for stats in runner.intervals)


def test_interval_close_calls_do_not_grow_with_rtt_samples(monkeypatch):
    per_close, samples = _close_calls(monkeypatch, us(100.0))
    doubled, more_samples = _close_calls(monkeypatch, us(50.0))
    assert more_samples >= 1.8 * samples > 0
    assert max(per_close) <= CLOSE_CALLS_BUDGET, per_close
    assert max(doubled) <= max(per_close), (per_close, doubled)


def test_influx_decision_stays_within_its_call_budget(monkeypatch):
    counter = _Counter()
    monkeypatch.setattr(
        StatsCollector,
        "end_interval",
        counter.counted(StatsCollector.end_interval, new_interval=True),
    )
    monkeypatch.setattr(
        ParaleonSystem,
        "on_interval",
        counter.counted(ParaleonSystem.on_interval, new_interval=False),
    )
    monkeypatch.setattr(FsdAggregator, "collect", counter.paused(FsdAggregator.collect))

    def influx():
        network = make_network("small", seed=1)
        install_influx(network, influx_start=0.003, influx_duration=0.003)
        ExperimentRunner(network, make_tuner("paraleon")).run(0.008)

    per_interval = counter.run(influx)
    assert len(per_interval) == 8
    mean = sum(per_interval) / len(per_interval)
    assert mean <= INFLUX_CALLS_PER_INTERVAL_BUDGET, (
        f"{mean:.1f} calls per interval outside collect "
        f"(budget {INFLUX_CALLS_PER_INTERVAL_BUDGET}): {per_interval}"
    )
