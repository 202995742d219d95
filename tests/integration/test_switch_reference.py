"""The shipped switch hop against its out-of-line reference, in lockstep.

:class:`~repro.simulator.switch.Switch` writes the dynamic-threshold
PFC rule, the buffer release and the sketch observation out in its two
event bodies; ``tests/reference_switch.py`` keeps them out of line, the
way the hop ran before.  Hypothesis draws PFC- and ECN-heavy incasts
and all-to-alls (fan-in, ``buffer_bytes``, ``pfc_alpha``, ``k_min``/
``k_max``, observation buffer size, seed) on both quick fabrics, builds
one network on each switch and steps them with the same ``run_until``
calls.  After every step the two must agree on the clock, the events
dispatched, every pending event down to its ``seq``, every switch's
buffer, PFC and ECN state and observations, and every port's paused
time; at the end, on the FCT and interval digests.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.parallel.tasks import fct_digest, interval_digest
from repro.simulator import network as network_module
from repro.simulator import switch as switch_module
from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.packet import Packet
from repro.simulator.switch import SwitchConfig
from repro.simulator.topology import SPECS
from repro.simulator.units import kb
from tests.reference_switch import ReferenceSwitch

#: An interval closes every this many steps (the interval digest).
STEPS_PER_INTERVAL = 8


class _Observed:
    """A measurement point that keeps what it is handed."""

    def __init__(self):
        self.seen = []

    def observe_batch(self, flow_ids, wire_bytes):
        self.seen.extend(zip(flow_ids.tolist(), wire_bytes.tolist()))


def _build(switch_class, scenario):
    config = NetworkConfig(
        spec=SPECS[scenario["fabric"]],
        params=DcqcnParams().copy(k_min=scenario["k_min"], k_max=scenario["k_max"]),
        switch=SwitchConfig(
            buffer_bytes=scenario["buffer_bytes"], pfc_alpha=scenario["pfc_alpha"]
        ),
        seed=scenario["seed"],
    )
    with mock.patch.object(network_module, "Switch", switch_class), mock.patch.object(
        switch_module, "OBS_BUFFER_CAPACITY", scenario["obs_capacity"]
    ):
        network = Network(config)
    for tor in network.tors:
        tor.measurement = _Observed()
        tor.dedup_marking = scenario["dedup"]
    for src, dst, size in scenario["flows"]:
        network.add_flow(src, dst, size, 0.0)
    return network


def _owner(fn):
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return fn.__qualname__
    link = getattr(owner, "link", None)
    name = getattr(owner, "name", None) or (link.name if link else type(owner).__name__)
    return f"{name}.{fn.__name__}"


def _arg(value):
    if isinstance(value, Packet):
        return (value.kind, value.flow_id, value.seq, value.ttl, value.ecn)
    if isinstance(value, (bool, int, float, str)):
        return value
    return type(value).__name__


def _pending(network):
    """Every pending event: time, ``seq``, handler and arguments."""
    return sorted(
        (time, seq, _owner(fn), tuple(_arg(a) for a in args))
        for time, seq, fn, args in network.sim.heap
    )


def _state(network):
    sim = network.sim
    switches = [
        (
            s.occupied_bytes,
            list(s.ingress_bytes),
            list(s._upstream_paused),
            s.pfc_pauses_sent,
            s.ecn_marked_packets,
            s.dropped_packets,
            [(e.data_queue_bytes, e.busy) for e in s.egress],
            s.measurement.seen if s.measurement is not None else None,
            (list(s._obs_flow), list(s._obs_bytes)),
        )
        for s in network.switches
    ]
    pauses = [
        (e.pause.paused, e.pause.paused_time_until_now())
        for e in [h.egress for h in network.hosts]
        + [e for s in network.switches for e in s.egress]
    ]
    return sim.now, sim.events_dispatched, _pending(network), switches, pauses


@st.composite
def scenarios(draw):
    fabric = draw(st.sampled_from(["small", "medium"]))
    n_hosts = SPECS[fabric].n_hosts
    if draw(st.booleans()):
        receiver = draw(st.integers(0, n_hosts - 1))
        senders = draw(
            st.lists(
                st.integers(0, n_hosts - 1).filter(lambda h: h != receiver),
                min_size=2, max_size=n_hosts - 1, unique=True,
            )
        )
        flows = [(src, receiver, kb(draw(st.integers(8, 256)))) for src in senders]
    else:
        workers = draw(st.integers(3, min(n_hosts, 8)))
        size = kb(draw(st.integers(8, 128)))
        flows = [
            (src, dst, size)
            for src in range(workers)
            for dst in range(workers)
            if src != dst
        ]
    k_min = kb(draw(st.integers(1, 40)))
    return {
        "fabric": fabric,
        "flows": flows,
        "buffer_bytes": kb(draw(st.integers(48, 1024))),
        "pfc_alpha": draw(st.sampled_from([1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])),
        "k_min": k_min,
        "k_max": k_min + kb(draw(st.integers(1, 100))),
        "obs_capacity": draw(st.integers(1, 64)),
        "dedup": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
        "step_us": draw(st.integers(2, 40)),
        "steps": draw(st.integers(16, 64)),
    }


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_switch_hop_matches_the_out_of_line_reference(scenario):
    shipped = _build(switch_module.Switch, scenario)
    reference = _build(ReferenceSwitch, scenario)
    assert _state(shipped) == _state(reference)
    intervals = ([], [])
    for step in range(1, scenario["steps"] + 1):
        end = step * scenario["step_us"] * 1e-6
        shipped.run_until(end)
        reference.run_until(end)
        assert _state(shipped) == _state(reference), f"step {step} (t={end!r})"
        if step % STEPS_PER_INTERVAL == 0:
            intervals[0].append(shipped.stats.end_interval())
            intervals[1].append(reference.stats.end_interval())
    assert fct_digest(shipped.records) == fct_digest(reference.records)
    assert interval_digest(intervals[0]) == interval_digest(intervals[1])
