"""Cross-mode identity: columnar monitoring == the scalar reference.

The columnar data plane is an *optimization*, not a remodel: with the
same scenario, ``SwitchAgent`` and a per-packet reference assembled
here from the public scalar pieces must produce bit-identical
per-interval reports and, end-to-end through the tuning loop,
identical run digests.  These tests are the gate for that claim.
"""

from __future__ import annotations

import pytest

from repro.monitor.agent import LocalReport, SwitchAgent
from repro.monitor.fsd import FlowSizeDistribution
from repro.monitor.states import SlidingWindowClassifier
from repro.parallel.tasks import EvalTask, ScenarioSpec, evaluate_task
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.units import kb, mb, ms
from repro.sketch.elastic import ElasticSketch, ElasticSketchConfig

TAU = kb(100.0)


class ScalarReferenceAgent:
    """The Fig. 3 pipeline one packet and one dict entry at a time.

    Same constructor as :class:`SwitchAgent`; the switch keeps its
    per-packet ``observe`` path (no observation buffer).
    """

    def __init__(self, switch, sketch_config=None, tau=mb(1.0), delta=3,
                 dedup_marking=True):
        self.switch = switch
        self.sketch = ElasticSketch(
            sketch_config or ElasticSketchConfig(seed=switch.switch_id)
        )
        self.classifier = SlidingWindowClassifier(tau=tau, delta=delta)
        self.tau = tau
        switch.measurement = self.sketch
        switch.dedup_marking = dedup_marking

    def collect(self, now):
        interval_bytes = self.sketch.read_and_reset()
        self.classifier.update(interval_bytes)
        fsd = FlowSizeDistribution.from_entries(
            self.classifier.flows.values(), tau=self.tau
        )
        return LocalReport(
            switch_name=self.switch.name,
            fsd=fsd,
            tracked_flows=len(self.classifier),
            interval_bytes=sum(interval_bytes.values()),
        )


def _reports_for(small_spec, agent_cls):
    net = Network(NetworkConfig(spec=small_spec, seed=21))
    agents = [agent_cls(t, tau=TAU) for t in net.tors]
    net.add_flow(0, 4, mb(2.0), 0.0)
    net.add_flow(1, 5, kb(30.0), 0.0)
    net.add_flow(2, 6, mb(1.0), ms(2.0))
    reports = []
    for _ in range(8):
        net.run_until(net.sim.now + ms(1.0))
        net.stats.end_interval()
        reports.append([agent.collect(net.sim.now) for agent in agents])
    return reports


def test_reports_bit_identical_across_modes(small_spec):
    scalar = _reports_for(small_spec, ScalarReferenceAgent)
    batched = _reports_for(small_spec, SwitchAgent)
    for interval_scalar, interval_batched in zip(scalar, batched):
        for a, b in zip(interval_scalar, interval_batched):
            assert b.switch_name == a.switch_name
            assert b.tracked_flows == a.tracked_flows
            assert b.interval_bytes == a.interval_bytes
            # Float equality is exact, not approximate: both modes sum
            # the same operands in the same order with the same kernel.
            assert b.fsd.elephant_weight == a.fsd.elephant_weight
            assert b.fsd.mice_weight == a.fsd.mice_weight
            assert b.fsd.histogram == a.fsd.histogram
            assert b.fsd.flow_states == a.fsd.flow_states


def test_run_digests_identical_across_modes(monkeypatch):
    spec = ScenarioSpec(
        workload="hadoop",
        scale="small",
        duration=0.03,
        monitor_interval=ms(1.0),
        seed=4,
        workload_seed=4,
        load=0.3,
    )
    task = EvalTask(scenario=spec, seed=4, scheme="paraleon")

    batched = evaluate_task(task)
    monkeypatch.setattr(
        "repro.core.paraleon.SwitchAgent", ScalarReferenceAgent
    )
    scalar = evaluate_task(task)

    assert batched.fct_digest == scalar.fct_digest
    assert batched.interval_digest == scalar.interval_digest
    assert batched.utilities == scalar.utilities
    assert batched.dispatches == scalar.dispatches
    assert batched.dropped_packets == scalar.dropped_packets


def test_observation_buffer_flushes_at_collect(small_spec):
    net = Network(NetworkConfig(spec=small_spec, seed=3))
    agents = [SwitchAgent(t, tau=TAU) for t in net.tors]
    net.add_flow(0, 4, mb(1.0), 0.0)
    net.run_until(ms(2.0))
    net.stats.end_interval()
    tor = agents[0].switch
    assert tor.obs_buffered > 0  # packets buffered, sketch not yet touched
    agents[0].collect(net.sim.now)
    assert tor.obs_buffered == 0
    assert tor.obs_flushes >= 1


def test_small_capacity_forces_mid_interval_flushes(small_spec):
    net = Network(NetworkConfig(spec=small_spec, seed=3))
    agents = [SwitchAgent(t, tau=TAU) for t in net.tors]
    for agent in agents:
        agent.switch.enable_batched_observation(capacity=8)
    net.add_flow(0, 4, mb(1.0), 0.0)
    net.run_until(ms(2.0))
    flushed = sum(a.switch.obs_flushes for a in agents)
    assert flushed > 0  # the tiny ring had to drain before any collect


def test_batched_observation_requires_batch_capable_measurement(small_spec):
    net = Network(NetworkConfig(spec=small_spec, seed=3))
    tor = net.tors[0]
    tor.measurement = None
    with pytest.raises(ValueError):
        tor.enable_batched_observation()
    with pytest.raises(ValueError):
        SwitchAgent(tor, tau=TAU).switch.enable_batched_observation(capacity=0)
