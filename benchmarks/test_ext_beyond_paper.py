"""Extension benches: the paper's discussion/future-work directions.

Not figures from the evaluation section — these exercise the two
Section V/VI directions this reproduction implements:

1. **Per-cluster controllers** (Section V, "Paraleon for large-scale
   environment"): two clusters with opposite workloads managed by
   independent controllers end up with heterogeneous DCQCN settings
   and beat a single homogeneous controller on the mice cluster's
   latency without giving up the training cluster's throughput.
2. **Delay-based CC substrate** (Section VI): the same incast under
   DCQCN (default and expert settings) and a Swift-style delay-target
   controller — quantifying the untuned-DCQCN inefficiency that
   motivates the whole paper.
"""

from __future__ import annotations

from conftest import emit

from repro.core import (
    ClusterSpec,
    MultiClusterParaleon,
    ParaleonConfig,
    ParaleonSystem,
)
from repro.telemetry.tables import format_table
from repro.experiments.runner import ExperimentRunner
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.topology import ClosSpec
from repro.simulator.units import kb, mb, ms
from repro.tuning.annealing import AnnealingSchedule
from repro.tuning.parameters import default_params, expert_params
from repro.tuning.utility import (
    DEFAULT_WEIGHTS,
    THROUGHPUT_SENSITIVE_WEIGHTS,
)
from repro.workloads import LlmTrainingWorkload, SolarRpcWorkload


def _fast_config(weights=DEFAULT_WEIGHTS):
    return ParaleonConfig(
        tau=kb(100.0),
        weights=weights,
        schedule=AnnealingSchedule(
            initial_temp=90.0, final_temp=30.0,
            cooling_rate=0.8, iterations_per_temp=10,
        ),
    )


def _mixed_fabric(seed=9):
    spec = ClosSpec(n_tor=4, n_spine=2, hosts_per_tor=4)
    network = Network(NetworkConfig(spec=spec, seed=seed))
    LlmTrainingWorkload(
        workers=list(range(8)), flow_size=mb(2.0), off_period=ms(3.0)
    ).install(network)
    SolarRpcWorkload(
        rate_per_host=3000.0, duration=0.07, hosts=list(range(8, 16)), seed=seed
    ).install(network)
    return network


def _rpc_latency(result, network):
    solar = [r for r in result.records if r.tag == "solar"]
    return sum(r.fct for r in solar) / len(solar)


def test_ext_multicluster_heterogeneous(benchmark):
    outcome = {}

    def experiment():
        # Arm 1: one homogeneous controller for the whole fabric.
        net_single = _mixed_fabric()
        single = ParaleonSystem(config=_fast_config())
        result_single = ExperimentRunner(
            net_single, single, monitor_interval=ms(1.0)
        ).run(0.08)
        outcome["single"] = (
            _rpc_latency(result_single, net_single),
            result_single.mean_utility(skip=10),
            False,
        )

        # Arm 2: per-cluster controllers with per-cluster preferences.
        net_multi = _mixed_fabric()
        multi = MultiClusterParaleon(
            [
                ClusterSpec(
                    "training", [0, 1], weights=THROUGHPUT_SENSITIVE_WEIGHTS
                ),
                ClusterSpec("rpc", [2, 3], weights=DEFAULT_WEIGHTS),
            ],
            config=_fast_config(),
        )
        result_multi = ExperimentRunner(
            net_multi, multi, monitor_interval=ms(1.0)
        ).run(0.08)
        outcome["multi"] = (
            _rpc_latency(result_multi, net_multi),
            result_multi.mean_utility(skip=10),
            multi.settings_diverged(),
        )

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        "ext_multicluster",
        format_table(
            ["controller layout", "RPC mean FCT (us)", "mean utility",
             "settings diverged"],
            [
                ["single homogeneous", f"{outcome['single'][0] * 1e6:.1f}",
                 f"{outcome['single'][1]:.4f}", "-"],
                ["per-cluster", f"{outcome['multi'][0] * 1e6:.1f}",
                 f"{outcome['multi'][1]:.4f}",
                 str(outcome['multi'][2])],
            ],
            title=(
                "Extension (Section V): per-cluster controllers on a "
                "training+RPC fabric"
            ),
        ),
    )

    # The clusters genuinely run heterogeneous settings...
    assert outcome["multi"][2]
    # ...and the RPC cluster's latency does not regress vs one
    # homogeneous controller trying to satisfy both at once.
    assert outcome["multi"][0] <= outcome["single"][0] * 1.2


def test_ext_swift_substrate(benchmark):
    results = {}

    def run_incast(cc, params=None, label=""):
        spec = ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=4)
        config = NetworkConfig(spec=spec, cc=cc, seed=2)
        if params is not None:
            config = NetworkConfig(spec=spec, cc=cc, seed=2, params=params)
        network = Network(config)
        flows = [network.add_flow(s, 4, mb(2.0), 0.0) for s in (0, 1, 2)]
        network.run_until(ms(200.0))
        assert all(f.completed for f in flows)
        assert network.total_dropped_packets() == 0
        ideal = 3 * mb(2.0) * 8 / spec.host_rate_bps
        fct = max(f.fct() for f in flows)
        results[label] = (fct, ideal / fct)

    def experiment():
        run_incast("dcqcn", default_params(), "DCQCN default")
        run_incast("dcqcn", expert_params(), "DCQCN expert")
        run_incast("swift", None, "Swift")

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        "ext_swift_substrate",
        format_table(
            ["congestion control", "incast completion (ms)", "efficiency"],
            [
                [label, f"{fct * 1e3:.2f}", f"{eff * 100:.0f}%"]
                for label, (fct, eff) in results.items()
            ],
            title="Extension (Section VI): 3-to-1 incast under DCQCN vs Swift",
        ),
    )

    # The motivating gap: untuned DCQCN is far from the fabric's
    # potential; tuning (expert) recovers much of it; a delay-based
    # controller shows what is achievable.
    assert results["DCQCN expert"][0] < results["DCQCN default"][0]
    assert results["Swift"][0] < results["DCQCN default"][0]


def test_ext_exhaustive_search_timeliness(benchmark):
    """Section III-C's claim, quantified: exhaustive search over even a
    coarse 81-point grid needs 81 measurement windows per sweep, so on
    a workload that lives for ~100 intervals it spends the whole run
    measuring; Paraleon's guided SA reaches high utility within a
    couple dozen intervals."""
    from conftest import run_scheme
    from repro.workloads import FbHadoopWorkload

    outcome = {}

    def install(network):
        workload = FbHadoopWorkload(load=0.3, duration=0.08, seed=131)
        workload.install(network)
        return workload

    def experiment():
        for scheme in ("grid-search", "paraleon"):
            result = run_scheme(scheme, install, 0.1, seed=131)
            outcome[scheme] = result

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    grid = outcome["grid-search"]
    paraleon = outcome["paraleon"]
    grid_tuner_sweep = 81  # 3^4 coarse grid
    emit(
        "ext_grid_search",
        format_table(
            ["search strategy", "mean utility (intervals 10-100)",
             "intervals to converge"],
            [
                ["exhaustive grid (81 pts)",
                 f"{grid.mean_utility(skip=10):.4f}",
                 f">= {grid_tuner_sweep} (one sweep)"],
                ["Paraleon guided SA",
                 f"{paraleon.mean_utility(skip=10):.4f}",
                 "~15-30 (observed)"],
            ],
            title=(
                "Extension (Section III-C): exhaustive search is untimely"
            ),
        ),
    )

    # Paraleon outperforms the in-progress exhaustive sweep over the
    # workload's lifetime.
    assert paraleon.mean_utility(skip=10) > grid.mean_utility(skip=10)
