"""Stacked collection: one AgentStack pass ≡ N independent agents.

``FsdAggregator`` collects its ``SwitchAgent`` s through one
``AgentStack``: their sketch registers share one table, their flow
tables one bucket-keyed classifier, every member switch's buffered
packets go through one stacked insert, and one FSD pass serves all N.
These tests drive the same packets through that stack, through N lone
agents, and through the per-packet scalar reference agent of
``tests/scalar_monitor.py``, and require every report field and every
sketch's eviction counters to be bit-equal.  Every switch here flushes
its observation buffer every 8 packets, so flushes land mid-interval
and the rest of each interval rides the stacked insert.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.monitor.agent import AgentStack, SwitchAgent
from repro.monitor.aggregate import FsdAggregator
from repro.monitor.fsd import merge_distributions
from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.engine import Simulator
from repro.simulator.switch import Switch, SwitchConfig
from repro.sketch.elastic import ElasticSketchConfig, ElasticStack
from tests.reference_switch import observe
from tests.scalar_monitor import ScalarReferenceAgent, bucket

TAU = 4_000
DELTA = 2


def _switches(n, capacity=8):
    sim = Simulator()
    with pytest.MonkeyPatch.context() as patch:
        # Read at construction: these switches flush every ``capacity``
        # packets.
        patch.setattr("repro.simulator.switch.OBS_BUFFER_CAPACITY", capacity)
        return [
            Switch(sim, i, f"tor{i}", SwitchConfig(), DcqcnParams(), seed=i)
            for i in range(n)
        ]


def _observe(switch, flow_id, nbytes):
    # The switch's ingress observation, fed a bare packet.
    observe(switch, SimpleNamespace(flow_id=flow_id, wire_size=nbytes, sketch_marked=False))


def _configs(n, shared_seed, lam):
    """Per-switch sketch configs: one shared object (``sketch_config=``
    handed to every agent) or distinct seeds, always a contested heavy
    part.  ``lam`` is one λ for every switch, or one per switch
    (switches of unequal λ form separate stacks)."""
    def config(seed, lam):
        return ElasticSketchConfig(
            heavy_buckets=8, light_width=16, light_depth=2, ostracism_lambda=lam, seed=seed
        )

    if shared_seed is not None and not isinstance(lam, list):
        return [config(shared_seed, lam)] * n
    lams = lam if isinstance(lam, list) else [lam] * n
    seeds = [i if shared_seed is None else shared_seed for i in range(n)]
    return [config(seed, lam) for seed, lam in zip(seeds, lams)]


def _observed(reports, agents):
    """Every report's fields, then every sketch's lifetime eviction
    count (read after each interval, so its per-interval increments are
    compared too)."""
    return [
        (
            r.switch_name, r.tracked_flows, r.interval_bytes,
            r.fsd.elephant_weight, r.fsd.mice_weight, r.fsd.histogram,
            list(r.fsd.flow_states.items()),
        )
        for r in reports
    ] + [a.sketch.evictions for a in agents]


def _run(stream, n, shared_seed, lam, mode, capacity=8):
    """:func:`_observed` for every interval of ``stream``."""
    switches = _switches(n, capacity)
    configs = _configs(n, shared_seed, lam)
    agent_cls = ScalarReferenceAgent if mode == "scalar" else SwitchAgent
    agents = [
        agent_cls(s, sketch_config=c, tau=TAU, delta=DELTA)
        for s, c in zip(switches, configs)
    ]
    aggregator = FsdAggregator(agents) if mode == "stacked" else None
    out = []
    for t, interval in enumerate(stream):
        for agent_index, flow_id, nbytes in interval:
            _observe(switches[agent_index % n], flow_id, nbytes)
        if aggregator is not None:
            aggregator.collect(t * 1e-3)
            reports = aggregator.last_reports
        else:
            reports = [agent.collect(t * 1e-3) for agent in agents]
        out.append(_observed(reports, agents))
    return out


# Packets as (agent, flow, bytes) over few flows and few buckets, so
# ostracism, light-part spills and flagged residents are common; empty
# and sparse intervals let flows expire and come back, and zero-byte
# packets seat residents that cannot be ostracized.
_packet = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=1_500),
)
_streams = st.lists(st.lists(_packet, max_size=60), min_size=1, max_size=12)
_lambdas = st.sampled_from([0.5, 1.0, 8.0])


@settings(deadline=None, max_examples=100)
@given(
    stream=_streams,
    n=st.sampled_from([1, 2, 4]),
    shared_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**20)),
    lam=st.one_of(_lambdas, st.lists(_lambdas, min_size=4, max_size=4)),
)
def test_stacked_collection_equals_independent_agents(stream, n, shared_seed, lam):
    stacked = _run(stream, n, shared_seed, lam, "stacked")
    assert stacked == _run(stream, n, shared_seed, lam, "alone")
    assert stacked == _run(stream, n, shared_seed, lam, "scalar")


@settings(deadline=None, max_examples=60)
@given(stream=_streams, n=st.sampled_from([1, 2, 4]), lam=_lambdas)
def test_stack_merge_is_merge_distributions_of_its_reports(stream, n, lam):
    """The merged FSD a stack's own pass yields is bit for bit what
    ``merge_distributions`` makes of its reports: weights folded left to
    right in agent order, histogram, and flow states in order."""
    switches = _switches(n)
    agents = [
        SwitchAgent(s, sketch_config=c, tau=TAU, delta=DELTA)
        for s, c in zip(switches, _configs(n, None, lam))
    ]
    aggregator = FsdAggregator(agents)
    for t, interval in enumerate(stream):
        for agent_index, flow_id, nbytes in interval:
            _observe(switches[agent_index % n], flow_id, nbytes)
        merged = aggregator.collect(t * 1e-3)
        reference = merge_distributions(r.fsd for r in aggregator.last_reports)
        assert merged is aggregator.current
        assert merged.elephant_weight == reference.elephant_weight
        assert merged.mice_weight == reference.mice_weight
        assert merged.histogram == reference.histogram
        assert all(type(v) is float for v in merged.histogram)
        assert list(merged.flow_states.items()) == list(reference.flow_states.items())


def _flows_in_buckets(seed):
    """Flow ids 0..999 by the heavy bucket they hash to under ``seed``."""
    config = _configs(1, seed, 1.0)[0]
    by_bucket = {}
    for flow in range(1000):
        by_bucket.setdefault(bucket(config, flow), []).append(flow)
    return by_bucket


def _edge_stream(case):
    """Three intervals of ``(agent, flow, bytes)`` for two agents whose
    sketches share seed 5."""
    by_bucket = _flows_in_buckets(5)
    if case == "no colliders":
        # One flow per bucket on each agent, several packets each.
        flows = [by_bucket[b][0] for b in range(8)]
        interval = [(i % 2, flows[i % 8], 500 + 13 * i) for i in range(48)]
        return [interval, interval[:20], interval]
    if case == "deep chain":
        # Every packet after the first is a new flow in the same bucket
        # with more bytes than the resident: each one ostracizes it.
        chain = [(a, flow, 100 * (i + 1)) for a in (0, 1) for i, flow in enumerate(by_bucket[3][:10])]
        return [chain, chain[::-1], chain]
    if case == "one flow":
        interval = [(0, 7, 1_000)] * 200 + [(1, 9, 300)] * 50
        return [interval, interval, []]
    if case == "empty member":
        interval = [(0, f % 30, 700 + f) for f in range(90)]
        return [interval, interval[::2], interval]
    assert case == "zero bytes"
    interval = [(a, f % 25, 0 if a == 0 or f % 2 else 900) for a in (0, 1) for f in range(60)]
    return [interval, interval, interval[:10]]


@pytest.mark.parametrize("capacity", [8, 4096])
@pytest.mark.parametrize(
    "case", ["no colliders", "deep chain", "one flow", "empty member", "zero bytes"]
)
def test_stacked_collection_edge_cases_equal_independent_agents(case, capacity):
    """Two stacked agents report bit-identically to lone agents and to
    the per-packet scalar reference on the inputs the kernel takes its
    early exits on, with every packet riding the stacked close
    (capacity 4096) or most flushed mid-interval (capacity 8)."""
    stream = _edge_stream(case)
    stacked = _run(stream, 2, 5, 1.0, "stacked", capacity)
    assert stacked == _run(stream, 2, 5, 1.0, "alone", capacity)
    assert stacked == _run(stream, 2, 5, 1.0, "scalar", capacity)


def test_stack_carries_state_collected_alone():
    """Agents collected alone for a while, then stacked, continue
    exactly as if they had stayed alone (registers, windows, keys)."""
    stream = [
        [(a, f, 700 + 37 * f) for a in range(3) for f in range(a, 12, 1 + t % 3)]
        for t in range(10)
    ]
    alone = _run(stream, 3, None, 1.0, "alone")
    switches = _switches(3)
    agents = [
        SwitchAgent(s, sketch_config=c, tau=TAU, delta=DELTA)
        for s, c in zip(switches, _configs(3, None, 1.0))
    ]
    got = []
    aggregator = None
    for t, interval in enumerate(stream):
        for agent_index, flow_id, nbytes in interval:
            _observe(switches[agent_index], flow_id, nbytes)
        if t == 4:
            aggregator = FsdAggregator(agents)   # mid-interval: buffered packets move too
        if aggregator is None:
            reports = [agent.collect(t * 1e-3) for agent in agents]
        else:
            aggregator.collect(t * 1e-3)
            reports = aggregator.last_reports
        got.append(_observed(reports, agents))
    assert got == alone
    # A stacked agent is collected by its stack, not alone.
    with pytest.raises(RuntimeError, match="peers"):
        agents[0].collect(1.0)
    # Stacking again moves the agents; the old stack refuses to run.
    old = aggregator.stacks[0][0]
    AgentStack(agents)
    with pytest.raises(RuntimeError, match="another stack"):
        old.collect(1.0)


def test_aggregator_rejects_repeated_agents_and_shared_switches():
    a, b = (SwitchAgent(s, tau=TAU) for s in _switches(2))
    with pytest.raises(ValueError, match="twice"):
        FsdAggregator([a, a])
    twin = SwitchAgent(a.switch, tau=TAU)
    with pytest.raises(ValueError, match="one switch"):
        FsdAggregator([a, b, twin])


def test_mixed_shapes_form_separate_stacks_in_agent_order():
    switches = _switches(3)
    agents = [
        SwitchAgent(switches[0], tau=TAU),
        SwitchAgent(switches[1], tau=2 * TAU),
        SwitchAgent(switches[2], tau=TAU),
    ]
    aggregator = FsdAggregator(agents)
    assert sorted(len(stack.agents) for stack, _ in aggregator.stacks) == [1, 2]
    # Sketches of unequal λ never share a stack either.
    lams = [
        SwitchAgent(s, sketch_config=ElasticSketchConfig(ostracism_lambda=lam), tau=TAU)
        for s, lam in zip(_switches(3), (1.0, 2.0, 1.0))
    ]
    grouped = FsdAggregator(lams).stacks
    assert sorted(members for _, members in grouped) == [[0, 2], [1]]
    for f in range(5):
        _observe(switches[f % 3], f, 3_000)
    aggregator.collect(0.0)
    assert [r.switch_name for r in aggregator.last_reports] == ["tor0", "tor1", "tor2"]
    assert [r.interval_bytes for r in aggregator.last_reports] == [6_000, 6_000, 3_000]


def test_registers_are_allocated_once_per_agent(monkeypatch):
    """An agent's lone stack is its sketch's own stack and flow table, so
    four agents build four ``ElasticStack`` s and their aggregator one
    more (nine before: each lone stack copied its sketch's registers),
    and every report is as the per-packet reference's."""
    built = []
    init = ElasticStack.__init__

    def counted(self, sketches):
        built.append(len(sketches))
        init(self, sketches)

    monkeypatch.setattr(ElasticStack, "__init__", counted)
    switches = _switches(4)
    agents = [
        SwitchAgent(s, sketch_config=c, tau=TAU, delta=DELTA)
        for s, c in zip(switches, _configs(4, None, 1.0))
    ]
    assert built == [1, 1, 1, 1]
    for agent in agents:
        assert agent._stack.sketches is agent.sketch.stack
        assert agent._stack.classifier is agent.classifier
    aggregator = FsdAggregator(agents)
    assert built == [1, 1, 1, 1, 4]
    # Each stack still reports bit for bit as the scalar reference.
    stream = [
        [(a, f, 500 + 41 * f) for a in range(4) for f in range(a, 30, 1 + t % 4)]
        for t in range(6)
    ]
    monkeypatch.undo()
    got = []
    for t, interval in enumerate(stream):
        for agent_index, flow_id, nbytes in interval:
            _observe(switches[agent_index], flow_id, nbytes)
        aggregator.collect(t * 1e-3)
        got.append(_observed(aggregator.last_reports, agents))
    assert got == _run(stream, 4, None, 1.0, "scalar")
    lone = _run(stream, 4, None, 1.0, "alone")
    assert lone == got
