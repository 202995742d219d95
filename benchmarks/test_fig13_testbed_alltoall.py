"""Fig. 13: alltoall bandwidth vs worker count (testbed analogue).

Paper setup: NCCL alltoall on the 32-server H100 testbed; Paraleon
surpasses both the Default and Expert settings by up to 19.5% across
worker counts, showing it finds settings matched to each scale.

Reproduction: the "testbed" fabric class (1:1 oversubscription, short
wires) with alltoall at 4/8/16 workers; Paraleon runs with the
throughput-sensitive weighting the paper prescribes for training
workloads.  λ_MI is 30 ms on the real testbed; at our scale we keep
1 ms (Table III) since the whole run is 100s of ms.
"""

from __future__ import annotations

from conftest import emit

from repro.telemetry.tables import format_table
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import make_network, make_tuner
from repro.simulator.units import mb, ms
from repro.workloads import LlmTrainingWorkload

WORKER_COUNTS = [4, 8, 16]
SCHEMES = ["default", "expert", "paraleon-tp"]


def run_alltoall(scheme: str, workers: int) -> float:
    network = make_network("testbed", seed=91)
    workload = LlmTrainingWorkload(
        n_workers=workers, flow_size=mb(2.0), off_period=ms(2.0), max_rounds=3
    )
    workload.install(network)
    runner = ExperimentRunner(network, make_tuner(scheme), monitor_interval=ms(1.0))
    runner.run(1.5, stop_when=lambda: workload.completed_rounds() >= 3)
    assert workload.completed_rounds() >= 1
    return workload.algorithm_bandwidth() / 1e9


def test_fig13_alltoall_bandwidth_by_scale(benchmark):
    table = {}

    def experiment():
        for scheme in SCHEMES:
            table[scheme] = [run_alltoall(scheme, n) for n in WORKER_COUNTS]

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = [
        [scheme] + [f"{bw:.2f}" for bw in table[scheme]]
        for scheme in SCHEMES
    ]
    emit(
        "fig13_testbed_alltoall",
        format_table(
            ["scheme"] + [f"{n} workers" for n in WORKER_COUNTS],
            rows,
            title=(
                "Fig 13 (scaled): alltoall bandwidth (Gbps per worker) "
                "on the testbed-analogue fabric"
            ),
        ),
    )

    # Paraleon adapts to each scale: at every worker count it at least
    # matches the better static setting minus a small tolerance, and
    # at some scale it strictly beats both static settings.
    strictly_better = 0
    for i, n in enumerate(WORKER_COUNTS):
        best_static = max(table["default"][i], table["expert"][i])
        assert table["paraleon-tp"][i] >= best_static * 0.85, (
            f"Paraleon fell far behind static settings at {n} workers"
        )
        if table["paraleon-tp"][i] > best_static:
            strictly_better += 1
    assert strictly_better >= 1
