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

The control-plane pins at the bottom do the same for the `cp-day`
workload of the repo benchmark: values recorded at commit 2f0cd24,
before collection became one range kernel.

The batched-SA pins in between fix the offline SA driver
(``batched_anneal``) at three fidelities: values recorded at commit
02c573c, before it and the control plane's per-tenant retunes shared
one step function.

If a pin moves, the simulator's dynamics (or the synthetic traffic
source, or the FSD summation order) changed.  Re-record only for a
deliberate model change, never for a performance one.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.controlplane import (
    ControlPlaneConfig,
    ControlPlaneService,
    HierarchicalAggregator,
    RangeCollector,
    ShardTopology,
    TenantProfile,
    TrafficConfig,
    TrafficShift,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import install_influx, make_network, make_tuner
from repro.parallel import ScenarioSpec, SweepExecutor
from repro.parallel.sa import batched_anneal
from repro.parallel.tasks import fct_digest, interval_digest
from repro.simulator.units import mb
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.parameters import default_params, default_space
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
    network = make_network("small", seed=1)
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
    network = make_network("small", seed=1)
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


# ---------------------------------------------------------------------------
# Batched SA: the offline driver
# ---------------------------------------------------------------------------


def _params_digest(params) -> str:
    canonical = repr(sorted(params.as_dict().items()))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


#: screen_ratio -> (best params digest, best utility, evaluations,
#: batches, utility_trace): full DES, then the fluid screen at ratio 3.
BATCHED_ANNEAL_PINS = {
    None: (
        "a33e61878fb4bfdc",
        0.8309996374631787,
        7,
        3,
        [
            0.8284559243327798,
            0.8273923892552233,
            0.820220772880343,
            0.8207045778787838,
            0.7368761313276881,
            0.7601891267181077,
        ],
    ),
    3.0: (
        "4cd50a583aeda98a",
        0.8365058577799674,
        7,
        3,
        [
            0.8230576171872785,
            0.8326627672254375,
            0.8365058577799674,
            0.8334589442150501,
            0.8337788839187592,
            0.8322489229100778,
        ],
    ),
}


@pytest.mark.parametrize(
    "screen_ratio", list(BATCHED_ANNEAL_PINS), ids=("full", "screen")
)
def test_batched_anneal_matches_recorded(screen_ratio):
    result = batched_anneal(
        ScenarioSpec(workload="hadoop", scale="small", duration=0.01, seed=1),
        ImprovedAnnealer(
            default_space(),
            AnnealingSchedule(90.0, 40.0, 0.85, 4),
            rng=random.Random(7),
        ),
        default_params(),
        batch_size=2,
        max_batches=3,
        screen_ratio=screen_ratio,
    )
    assert (
        _params_digest(result.best_params),
        result.best_utility,
        result.evaluations,
        result.batches,
        result.utility_trace,
    ) == BATCHED_ANNEAL_PINS[screen_ratio]


# ---------------------------------------------------------------------------
# Control plane: the cp-day workload
# ---------------------------------------------------------------------------


def _cp_day(seed: int, quick: bool) -> ControlPlaneConfig:
    """The config ``benchmarks/perf/bodies.py::CpDay`` builds."""
    return ControlPlaneConfig(
        topology=(
            ShardTopology(n_shards=4, agents_per_shard=8, agents_per_rack=8, racks_per_pod=2)
            if quick
            else ShardTopology(n_shards=32, agents_per_shard=32, agents_per_rack=16, racks_per_pod=4)
        ),
        traffic=TrafficConfig(
            seed=seed,
            shifts=(TrafficShift(0, 2 if quick else 8, TenantProfile(0.40, 0.10)),),
        ),
        intervals=6 if quick else 24,
        scenario=ScenarioSpec(
            workload="alltoall",
            duration=0.003 if quick else 0.02,
            n_workers=4,
            stop_on_completion=True,
            seed=seed,
            workload_seed=seed,
        ),
        batch_size=4,
        schedule=(
            AnnealingSchedule(initial_temp=90.0, final_temp=50.0, cooling_rate=0.6, iterations_per_temp=2)
            if quick
            else AnnealingSchedule(iterations_per_temp=2)
        ),
    )


#: seed -> global FSD digest[:16] before the shift (interval 0) and at
#: it (interval 8), 1024 agents.  The full days these belong to have
#: result_digest[:16] 663d11a4963b2926 / 00cadb32e56208b7 /
#: 5353989e74c32534 and retune utilities 0.9079868343082783 /
#: 0.8955579042568751 / 0.900403975376822 (trigger 8, finished 14, 29
#: evaluations each) — 2.5 s of DES apiece, so checked by hand, not here.
CP_DAY_INTERVAL_PINS = {
    1: ("11fdbd3a083bd5b3", "3c733e01f7bb69f6"),
    2: ("fda0317e13b7bd15", "9dbf91d75cd57019"),
    3: ("434730dbc87d6e76", "f3960eb5d51f0000"),
}


@pytest.mark.parametrize("seed", sorted(CP_DAY_INTERVAL_PINS))
def test_cp_day_interval_digests_match_recorded(seed):
    config = _cp_day(seed, quick=False)
    collector = RangeCollector(config.topology, config.traffic)
    aggregator = HierarchicalAggregator(config.topology)
    digests = []
    for interval in (0, 8):
        aggregator.begin_interval(interval)
        for batch in collector.collect(interval):
            aggregator.ingest(batch)
        digests.append(aggregator.aggregate().digest[:16])
    assert tuple(digests) == CP_DAY_INTERVAL_PINS[seed]


def test_cp_day_quick_result_digest_matches_recorded():
    """Every decision of a whole day, at the benchmark's ``--quick`` sizes."""
    result = ControlPlaneService(
        _cp_day(1, quick=True), SweepExecutor(jobs=1)
    ).run()
    assert result.result_digest()[:16] == "57dd88da892f312d"
    assert [o.digest[:16] for o in result.outcomes] == (
        ["1a7113d5513a0e6a"] * 2 + ["26d716a8f6bf03c2"] * 4
    )
    (retune,) = result.retunes
    assert (retune.trigger_interval, retune.finished_interval) == (2, 2)
    assert retune.evaluations == 5
    assert retune.utility == 0.9103726732670067
