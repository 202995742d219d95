"""Bytecodes executed per hop and per RTT sample: fixed budgets.

The frame and call budgets (``test_frame_budget.py``,
``test_interval_close_call_budget.py``) see only calls, and
``sys.setprofile`` reports no event for a call to a type: a ``float()``
wrapped around every RTT sample of an interval close, or a dead counter
put back into ``Switch.receive``, adds work on every element and not
one counted call.  Executed bytecodes see both.  These tests trace
every opcode that runs in a frame of ``repro/`` (``sys.settrace`` with
``frame.f_trace_opcodes``) and hold two counts to a budget:

* opcodes per packet-hop on the quick all-to-all (``small``, 8
  workers, 2 ms, frozen parameters), the run the frame budget counts;
* opcodes each extra RTT sample adds to ``StatsCollector.end_interval``
  on the des-alltoall fabric, from the same two runs the interval-close
  call budget makes (the probe interval halved roughly doubles the
  samples).

On CPython 3.11 the hop reads 418.7 opcodes (448.6 while the switch
called its dequeue callback and DT check out of line and kept its dead
counters) and each extra RTT sample 32.0.  The per-sample budget adds
~5 %, less than the 4 opcodes of a ``float()`` call.  The per-hop
budget adds only 0.3 %: a counter bumped on every switch hop costs 7
opcodes there, ~4 per hop (1 %), so ~5 % would let it through.  Both
counts are exact for a given interpreter; bytecode differs between
minor versions, so the budgets are recorded per version and the tests
skip on a version with none recorded.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import make_network
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.stats import StatsCollector
from repro.simulator.topology import SPECS
from repro.simulator.units import mb, us
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce

#: CPython (major, minor) -> (opcodes per hop, opcodes per extra RTT
#: sample in the interval close).
BUDGETS = {
    (3, 11): (420.0, 33.5),
}

_REPRO = str(Path(repro.__file__).resolve().parent)


def _budget(index):
    budget = BUDGETS.get(sys.version_info[:2])
    if budget is None:
        pytest.skip(
            f"no opcode budget recorded for CPython "
            f"{sys.version_info[0]}.{sys.version_info[1]}: bytecode differs "
            f"between minor versions"
        )
    return budget[index]


class _Opcodes:
    """Counts opcodes executed in ``repro/`` frames while switched on."""

    def __init__(self):
        self.count = 0

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(_REPRO):
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            return self._local
        return None

    def run(self, body):
        sys.settrace(self._global)
        try:
            return body()
        finally:
            sys.settrace(None)


def test_hop_opcodes_stay_within_budget():
    budget = _budget(0)
    network = make_network("small", seed=1)
    AllToAllOnce(n_workers=8, flow_size=mb(2.0)).install(network)
    runner = ExperimentRunner(network, StaticTuner(default_params(), "default"))
    opcodes = _Opcodes()
    result = opcodes.run(lambda: runner.run(0.002))
    hops = sum(host.egress.link.tx_packets for host in network.hosts) + sum(
        egress.link.tx_packets
        for switch in network.switches
        for egress in switch.egress
    )
    assert (hops, result.events) == (12530, 25292)
    per_hop = opcodes.count / hops
    assert per_hop <= budget, f"{per_hop:.2f} opcodes per hop (budget {budget})"


def _close_opcodes(monkeypatch, probe_interval):
    """Opcodes over the 5 closes of 5 ms of the des-alltoall run, and
    the RTT samples those intervals held."""
    opcodes = _Opcodes()
    close = StatsCollector.end_interval
    # Undone on return, so the second run wraps the real close.
    with monkeypatch.context() as patch:
        patch.setattr(
            StatsCollector,
            "end_interval",
            lambda self: opcodes.run(lambda: close(self)),
        )
        config = NetworkConfig(
            spec=SPECS["medium"], seed=1, probe_interval=probe_interval
        )
        network = Network(config)
        AllToAllOnce(n_workers=16, flow_size=mb(2.0)).install(network)
        runner = ExperimentRunner(network, StaticTuner(default_params(), "default"))
        runner.run(0.005)
    assert len(runner.intervals) == 5
    return opcodes.count, sum(stats.rtt_samples for stats in runner.intervals)


def test_interval_close_opcodes_per_rtt_sample_stay_within_budget(monkeypatch):
    budget = _budget(1)
    base, samples = _close_opcodes(monkeypatch, us(100.0))
    doubled, more_samples = _close_opcodes(monkeypatch, us(50.0))
    assert more_samples >= 1.8 * samples > 0
    per_sample = (doubled - base) / (more_samples - samples)
    assert per_sample <= budget, (
        f"{per_sample:.2f} opcodes per extra RTT sample (budget {budget}; "
        f"{base} opcodes for {samples} samples, {doubled} for {more_samples})"
    )
