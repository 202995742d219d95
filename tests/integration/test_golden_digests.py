"""Absolute digest pins for the scalar DES.

Every other digest test is relative (mode A == mode B, run 1 == run 2),
so a change that reorders same-time events in *all* modes at once
would pass them.  These pin the byte-exact record/interval streams and
the exact hop/ECN/PFC counts of three quick scenarios to the values
recorded at commit 8ab34de, before the packet-hop fast lane (handle-free
events, coalesced RP timers) touched the hot path.

The all-to-all cases are the tie-heavy ones: every flow starts at the
same instant on a symmetric fabric, so hundreds of events share exact
float timestamps and only the ``(time, seq)`` order separates them.

If a pin moves, the simulator's dynamics changed.  Re-record only for
a deliberate model change, never for a performance one.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import install_influx, make_network, make_tuner
from repro.parallel.tasks import fct_digest, interval_digest
from repro.simulator.units import mb
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce


def _pins(network, result) -> dict:
    hops = sum(host.egress.link.tx_packets for host in network.hosts) + sum(
        egress.link.tx_packets
        for switch in network.switches
        for egress in switch.egress
    )
    return {
        "fct": fct_digest(result.records),
        "interval": interval_digest(result.intervals),
        "hops": hops,
        "ecn": network.total_ecn_marked(),
        "pfc": network.total_pfc_pauses(),
        "dropped": result.dropped_packets,
        "flows": len(result.records),
    }


def _all_to_all(flow_size: int) -> dict:
    network = make_network("small", seed=1, engine_mode="off")
    AllToAllOnce(n_workers=8, flow_size=flow_size).install(network)
    runner = ExperimentRunner(network, StaticTuner(default_params(), "default"))
    return _pins(network, runner.run(0.002))


ALL_TO_ALL_PINS = {
    # 2 MB elephants: saturated for the whole 2 ms, nothing completes
    # (the FCT digest is that of an empty stream).
    mb(2.0): {
        "fct": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "interval": "18461052005970b1dca04b51c43d00c105340bcb50da4fabe79cee81e4f4a8e4",
        "hops": 12530,
        "ecn": 701,
        "pfc": 8,
        "dropped": 0,
        "flows": 0,
    },
    # 125 KB flows: 24 of the 56 finish, so completion order and the
    # RP stop path are pinned too.
    mb(0.125): {
        "fct": "8f4a297baa71ed772049410dc4861ed36addd92d6b2ff9f82ae57c166ceb1cc8",
        "interval": "15c180b6380ec4950e49ae9dae612753bde1e932df646e9031e5345310459cce",
        "hops": 6820,
        "ecn": 492,
        "pfc": 8,
        "dropped": 0,
        "flows": 24,
    },
}


@pytest.mark.parametrize("flow_size", sorted(ALL_TO_ALL_PINS))
def test_all_to_all_matches_recorded_digests(flow_size):
    assert _all_to_all(flow_size) == ALL_TO_ALL_PINS[flow_size]


def test_paraleon_influx_matches_recorded_digests():
    network = make_network("small", seed=1, engine_mode="off")
    install_influx(network, influx_start=0.003, influx_duration=0.003)
    result = ExperimentRunner(network, make_tuner("paraleon")).run(0.008)
    assert _pins(network, result) == {
        "fct": "a1f94bc05979f2239e46f14a9c2d24b4d3b0996cd4e8e32eec196730968bd493",
        "interval": "4055b58b445e49ae74f68c4af1d0268df6c79bd0bd53df7e20438677dda12448",
        "hops": 33169,
        "ecn": 829,
        "pfc": 8,
        "dropped": 0,
        "flows": 36,
    }
