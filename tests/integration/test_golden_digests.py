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

The influx pins run that scenario under each of the three monitor
arms of Fig. 10, so the two ablation agents are pinned end to end too:
values recorded at commit 0ed5f06, before they moved onto the columnar
FSD kernel and the switch observation buffer.

The flight-recorder pins fix the per-interval QP rows (rate, alpha,
CNP counts) that ``make report`` plots: values recorded at commit
e206590, before the DCQCN reaction point's timers became lazy, so a
row that read stale timer state would move them (the ``report-influx``
pin, ``make report``'s scenario since, at commit fec9009).

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
from repro.parallel.tasks import EvalTask, evaluate_task, fct_digest, interval_digest
from repro.simulator import host as host_module
from repro.simulator.topology import SPECS
from repro.simulator.units import mb, us
from repro.telemetry import recorder
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.parameters import default_params, default_space, expert_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce
from tests.eager_rp import EagerDcqcnRp


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


@pytest.mark.parametrize("flow_size", sorted(ALL_TO_ALL_PINS))
def test_eager_reference_rp_matches_the_same_pins(flow_size, monkeypatch):
    """The per-tick reference RP, one event per timer tick, lands on
    the pins the lazy RP holds."""
    monkeypatch.setattr(host_module, "DcqcnRp", EagerDcqcnRp)
    assert _all_to_all(flow_size) == ALL_TO_ALL_PINS[flow_size]


#: scheme -> pins of the influx scenario, one per Fig. 10 monitor arm:
#: the sliding-window sketch pipeline, the naive single-interval
#: Elastic Sketch and 1:100 NetFlow (recorded at commit 0ed5f06).
INFLUX_PINS = {
    "paraleon": {
        "fct": "a1f94bc05979f2239e46f14a9c2d24b4d3b0996cd4e8e32eec196730968bd493",
        "interval": "4055b58b445e49ae74f68c4af1d0268df6c79bd0bd53df7e20438677dda12448",
        "hops": 33169,
        "ecn": 829,
        "pfc": 8,
        "dropped": 0,
        "flows": 36,
    },
    "paraleon-naive-sketch": {
        "fct": "028aa82cd507869fc11a6532679ab3293e42d0f22650608d088fb806a8af4964",
        "interval": "03b12d1a76489bc6b2493e97c8a8044414b9e4b99dea5f464f9f3464b39ea455",
        "hops": 31921,
        "ecn": 775,
        "pfc": 8,
        "dropped": 0,
        "flows": 35,
    },
    "paraleon-netflow": {
        "fct": "5bcbef249c2e2d0c964b7adb64cc43e1de6c9e1a3a855b5e69a7ae982f5d445f",
        "interval": "4746855ef213b462d4bac0e2fbad336ac4f34663e7ae5b7273a8fd6f3a74e559",
        "hops": 34358,
        "ecn": 1180,
        "pfc": 9,
        "dropped": 0,
        "flows": 35,
    },
}


@pytest.mark.parametrize("scheme", list(INFLUX_PINS))
def test_paraleon_influx_matches_recorded_digests(scheme):
    network = make_network("small", seed=1)
    install_influx(network, influx_start=0.003, influx_duration=0.003)
    result = ExperimentRunner(network, make_tuner(scheme)).run(0.008)
    assert _pins(network, result) == INFLUX_PINS[scheme]


# ---------------------------------------------------------------------------
# Flight recorder: the QP rows behind the report's rate/alpha plot
# ---------------------------------------------------------------------------


def _qp_rows_digest(recording) -> str:
    return hashlib.sha256(repr(sorted(recording["qp"].items())).encode()).hexdigest()


#: scenario -> digest of the recording's ``qp`` rows (n, rate_mean,
#: rate_min, alpha_mean, alpha_max, cnps per interval).
QP_ROW_PINS = {
    # run --scheme paraleon --scale small --duration 0.02 on the default
    # hadoop (load 0.3) workload, which `make report` recorded until it
    # moved to influx: 0-2 active QPs, below line rate in 3 of 20
    # intervals, so the rate/alpha plot had little to show.
    "report": "2c80157f4c38df17876f5eb5d65fbb47caac6a9d41629711aabf3440a1a0d11d",
    # `make report`: the same run on --workload influx (recorded at
    # commit fec9009).
    "report-influx": "ae73395ff35f7db2d538af591c8039cd97fb9a5488aac73ee2beb95d592ae90e",
    # The influx pin's scenario: seven mid-run parameter dispatches.
    "influx": "604a7108e3657fe4bb98334d53b86aa4826ef277607a2ebc467a6940c5dd715b",
}

#: QP_ROW_PINS scenario -> workload of its ``repro run`` command line.
_RUN_WORKLOADS = {"report": "hadoop", "report-influx": "influx"}


def _recording(scenario: str) -> dict:
    recorder.configure(None)
    try:
        if scenario in _RUN_WORKLOADS:
            spec = ScenarioSpec(
                workload=_RUN_WORKLOADS[scenario], scale="small",
                duration=0.02, seed=1, workload_seed=1,
            )
            return evaluate_task(
                EvalTask(scenario=spec, seed=1, scheme="paraleon")
            ).recording
        network = make_network("small", seed=1)
        install_influx(network, influx_start=0.003, influx_duration=0.003)
        return ExperimentRunner(network, make_tuner("paraleon")).run(
            0.008
        ).recording
    finally:
        recorder.disable()


@pytest.mark.parametrize("scenario", list(QP_ROW_PINS))
def test_recorded_qp_rows_match_recorded(scenario):
    assert _qp_rows_digest(_recording(scenario)) == QP_ROW_PINS[scenario]


def intervals_below_line_rate(recording) -> int:
    """Intervals in which some active QP sends below the host line rate."""
    qp = recording["qp"]
    line = SPECS["small"].host_rate_bps
    return sum(
        n > 0 and rate_min < line for n, rate_min in zip(qp["n"], qp["rate_min"])
    )


def test_report_scenario_keeps_a_qp_below_line_rate():
    """`make report`'s rate/alpha plot needs DCQCN at work: an active QP
    below line rate in at least half the recorded intervals (the hadoop
    scenario it replaced has one in 3 of 20)."""
    recording = _recording("report-influx")
    assert 2 * intervals_below_line_rate(recording) >= len(recording["qp"]["n"])


#: The expert setting with the knobs the RP timers read changed too.
_SWAPPED = expert_params().copy(
    dce_tcp_g=1.0 / 16, rpg_time_reset=us(100.0), rpg_threshold=2
)


def _swap_at_a_tick(assign) -> dict:
    """Run the influx scenario, swap to :data:`_SWAPPED` at the exact
    instant a QP's increase timer expires, and run on."""
    network = make_network("small", seed=1)
    install_influx(network, influx_start=0.003, influx_duration=0.003)
    network.run_until(0.002)
    qp = next(qp for host in network.hosts for qp in host.egress.qps.values())
    qp.rp.catch_up()
    tick = qp.rp._increase_deadline
    network.run_until(tick)
    # Nothing reads a QP between the clock and the swap: the knob
    # writer alone must catch them up.
    if assign is not None:
        assign(network, _SWAPPED)
    network.run_until(0.006)
    return {
        "tick": tick,
        "end": network.qp_sample(),
        "fct": fct_digest(network.records),
        "hops": sum(host.egress.link.tx_packets for host in network.hosts),
        "ecn": network.total_ecn_marked(),
    }


def _assign_each_device(network, params) -> None:
    for host in network.hosts:
        host.params = params.copy()
    for switch in network.switches:
        switch.params = params.copy()


def test_host_params_assignment_at_a_tick_matches_set_all_params(monkeypatch):
    """Any writer of ``Host.params`` catches the QPs up first: a swap
    at a timer's expiry instant through the attribute, through
    ``set_all_params`` and under the per-tick reference RP agree."""
    by_network = _swap_at_a_tick(lambda net, params: net.set_all_params(params))
    assert _swap_at_a_tick(_assign_each_device) == by_network
    assert _swap_at_a_tick(None) != by_network          # the swap mattered
    monkeypatch.setattr(host_module, "DcqcnRp", EagerDcqcnRp)
    assert _swap_at_a_tick(_assign_each_device) == by_network


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
        aggregator.ingest(collector.collect(interval))
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
