"""Extension benches: the paper's discussion/future-work directions.

Not figures from the evaluation section — these exercise the
Section III-C/VI directions this reproduction implements:

1. **Delay-based CC substrate** (Section VI): the same incast under
   DCQCN (default and expert settings) and a Swift-style delay-target
   controller — quantifying the untuned-DCQCN inefficiency that
   motivates the whole paper.
2. **Exhaustive-search timeliness** (Section III-C): an 81-point grid
   sweep against Paraleon's guided SA over one workload's lifetime.

Section V's per-cluster control is the sharded control plane
(``repro.controlplane``), exercised by the ``cp-day`` workload and
``tests/integration/test_controlplane_day.py``.
"""

from __future__ import annotations

from conftest import emit

from repro.telemetry.tables import format_table
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.topology import ClosSpec
from repro.simulator.units import mb, ms
from repro.tuning.parameters import default_params, expert_params


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
