"""Cross-mode identity: columnar monitoring == the scalar reference.

The columnar data plane is an *optimization*, not a remodel: with the
same scenario, ``SwitchAgent`` and the per-packet reference agent of
``tests/scalar_monitor.py`` must produce bit-identical per-interval
reports and, end-to-end through the tuning loop, identical run digests.
These tests are the gate for that claim.  The two ablation agents are
pinned here too: their report streams are recorded values.
"""

from __future__ import annotations

import pytest

from repro.monitor.agent import NaiveSketchAgent, NetFlowAgent, SwitchAgent
from repro.parallel.tasks import EvalTask, ScenarioSpec, evaluate_task
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.units import kb, mb, ms
from repro.sketch.elastic import ElasticSketchConfig
from repro.sketch.netflow import NetFlowConfig
from tests.scalar_monitor import ScalarReferenceAgent

TAU = kb(100.0)


def _reports_for(small_spec, make_agent):
    net = Network(NetworkConfig(spec=small_spec, seed=21))
    agents = [make_agent(t) for t in net.tors]
    net.add_flow(0, 4, mb(2.0), 0.0)
    net.add_flow(1, 5, kb(30.0), 0.0)
    net.add_flow(2, 6, mb(1.0), ms(2.0))
    reports = []
    for _ in range(8):
        net.run_until(net.sim.now + ms(1.0))
        net.stats.end_interval()
        reports.append([agent.collect(net.sim.now) for agent in agents])
    return reports


def _contested_reports_for(small_spec, agent_cls):
    """Twelve intervals of four long flows under ToR 0, whose Heavy Part
    has one bucket.  A flow that loses the bucket reads 0 bytes, so
    flow 0 is silent for more than δ intervals, expires, and is
    re-admitted when it wins the bucket back."""
    net = Network(NetworkConfig(spec=small_spec, seed=21))
    agents = [
        agent_cls(
            t,
            sketch_config=ElasticSketchConfig(heavy_buckets=1, seed=t.switch_id),
            tau=TAU,
        )
        for t in net.tors
    ]
    for host in range(4):
        net.add_flow(host, host + 4, mb(3.0), ms(0.5) * host)
    reports = []
    for _ in range(12):
        net.run_until(net.sim.now + ms(1.0))
        net.stats.end_interval()
        reports.append([agent.collect(net.sim.now) for agent in agents])
    return reports


def _readmitted(reports, tor):
    """Flow ids ToR ``tor`` stopped tracking and later tracked again."""
    readmitted, seen, gone = set(), set(), set()
    for interval in reports:
        tracked = set(interval[tor].fsd.flow_states)
        readmitted |= tracked & gone
        gone = (gone | seen) - tracked
        seen |= tracked
    return readmitted


def test_reports_bit_identical_across_modes(small_spec):
    scenarios = [
        (
            _reports_for(small_spec, lambda t: ScalarReferenceAgent(t, tau=TAU)),
            _reports_for(small_spec, lambda t: SwitchAgent(t, tau=TAU)),
        ),
        (
            _contested_reports_for(small_spec, ScalarReferenceAgent),
            _contested_reports_for(small_spec, SwitchAgent),
        ),
    ]
    for scalar, batched in scenarios:
        assert len(batched) == len(scalar)
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
    # The contested scenario compares what the first one never reaches:
    # traffic to the last interval and a flow re-admitted after expiry.
    assert batched[-1][0].interval_bytes > 0
    assert _readmitted(batched, 0)


_IDLE = (0.0, 0.0, {}, 0, 0)

#: Per-interval report streams of the two ablation agents on the
#: scenario of ``_reports_for``, recorded at commit 0ed5f06: per
#: interval, per ToR, ``(elephant_weight, mice_weight, {bucket: count}
#: of the non-empty histogram buckets, tracked_flows, interval_bytes)``.
ABLATION_REPORT_PINS = {
    "naive-sketch": [
        [(1.0, 1.0, {14: 1.0, 20: 1.0}, 2, 1273468), _IDLE],
        [(1.0, 0.0, {19: 1.0}, 1, 788028), _IDLE],
        [(1.0, 0.0, {19: 1.0}, 1, 1015500), _IDLE],
    ] + [[_IDLE, _IDLE]] * 5,
    "netflow": [
        [(1.0, 0.0, {20: 1.0}, 1, 1137360), (1.0, 0.0, {20: 1.0}, 1, 1299840)],
        [(1.0, 0.0, {19: 1.0}, 1, 609300), (1.0, 0.0, {19: 1.0}, 1, 649920)],
        [(1.0, 0.0, {19: 1.0}, 1, 974880), (1.0, 0.0, {19: 1.0}, 1, 731160)],
    ] + [[_IDLE, _IDLE]] * 5,
}

ABLATION_AGENTS = {
    "naive-sketch": lambda t: NaiveSketchAgent(t, tau=TAU),
    "netflow": lambda t: NetFlowAgent(
        t,
        config=NetFlowConfig(export_interval=1e-3, sampling_rate=10, seed=t.switch_id),
        tau=TAU,
    ),
}


@pytest.mark.parametrize("arm", list(ABLATION_REPORT_PINS))
def test_ablation_agent_reports_match_recorded(small_spec, arm):
    reports = _reports_for(small_spec, ABLATION_AGENTS[arm])
    assert [
        [
            (
                r.fsd.elephant_weight,
                r.fsd.mice_weight,
                {b: n for b, n in enumerate(r.fsd.histogram) if n},
                r.tracked_flows,
                r.interval_bytes,
            )
            for r in interval
        ]
        for interval in reports
    ] == ABLATION_REPORT_PINS[arm]
    assert all(len(r.fsd.histogram) == 31 for interval in reports for r in interval)


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


def test_small_capacity_forces_mid_interval_flushes(small_spec, monkeypatch):
    # The capacity is read when a switch is built.
    monkeypatch.setattr("repro.simulator.switch.OBS_BUFFER_CAPACITY", 8)
    net = Network(NetworkConfig(spec=small_spec, seed=3))
    agents = [SwitchAgent(t, tau=TAU) for t in net.tors]
    net.add_flow(0, 4, mb(1.0), 0.0)
    net.run_until(ms(2.0))
    flushed = sum(a.switch.obs_flushes for a in agents)
    assert flushed > 0  # the tiny buffer had to drain before any collect
    assert all(a.switch.obs_buffered < 8 for a in agents)
