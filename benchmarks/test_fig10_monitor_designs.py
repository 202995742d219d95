"""Fig. 10: monitoring design comparison (FSD accuracy and FCT).

Paper setup: FB_Hadoop under four monitoring designs — *No FSD*
(tuning runs blind), *NetFlow* (1:100 sampling, 1 s export), naive
*Elastic Sketch* (single-interval classification), and *Paraleon*
(sketch + TOS dedup + sliding-window ternary states).  Paraleon has
the most accurate flow size distribution at every load and therefore
the best FCT.

Reproduction: (a) per-interval flow classification accuracy against
the simulator's oracle at three loads; (b) overall FCT slowdown of the
full tuning loop under each monitoring backend.
"""

from __future__ import annotations

from conftest import emit, run_scheme

from repro.experiments.fct import FctStats
from repro.telemetry.tables import format_table
from repro.monitor.agent import NaiveSketchAgent, NetFlowAgent, SwitchAgent
from repro.monitor.aggregate import FsdAggregator
from repro.experiments.scenarios import make_network
from repro.simulator.units import kb, ms
from repro.workloads import FbHadoopWorkload

TAU = kb(100.0)  # elephant threshold scaled with flow sizes/rates
LOADS = [0.2, 0.3, 0.4]

MONITOR_SCHEMES = [
    ("paraleon-no-fsd", "No FSD"),
    ("paraleon-netflow", "NetFlow"),
    ("paraleon-naive-sketch", "Elastic Sketch"),
    ("paraleon", "Paraleon"),
]


def measure_accuracy(agent_factory, load: float, seed: int = 71) -> float:
    """Mean per-interval classification accuracy vs the oracle."""
    network = make_network("medium", seed=seed)
    workload = FbHadoopWorkload(load=load, duration=0.03, seed=seed)
    workload.install(network)
    truth_labels = {f.flow_id: f.size >= TAU for f in workload.flows}
    agents = [agent_factory(t) for t in network.tors]
    aggregator = FsdAggregator(agents)
    scores = []
    for _ in range(30):
        network.run_until(network.sim.now + ms(1.0))
        stats = network.stats.end_interval()
        fsd = aggregator.collect(network.sim.now)
        live = {
            fid: truth_labels[fid]
            for fid in stats.flow_bytes
            if fid in truth_labels
        }
        if live:
            scores.append(fsd.classification_accuracy(live))
    return sum(scores) / len(scores)


def test_fig10a_fsd_accuracy(benchmark):
    accuracy = {}

    def experiment():
        factories = {
            "NetFlow": lambda t: NetFlowAgent(t, tau=TAU),
            "Elastic Sketch": lambda t: NaiveSketchAgent(t, tau=TAU),
            "Paraleon": lambda t: SwitchAgent(t, tau=TAU),
        }
        for name, factory in factories.items():
            accuracy[name] = [measure_accuracy(factory, load) for load in LOADS]

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = [
        [name] + [f"{a * 100:.1f}%" for a in values]
        for name, values in accuracy.items()
    ]
    emit(
        "fig10a_fsd_accuracy",
        format_table(
            ["monitoring"] + [f"load {int(l * 100)}%" for l in LOADS],
            rows,
            title="Fig 10(a) (scaled): flow classification accuracy vs load",
        ),
    )

    for i in range(len(LOADS)):
        assert accuracy["Paraleon"][i] >= accuracy["Elastic Sketch"][i]
        assert accuracy["Paraleon"][i] > accuracy["NetFlow"][i]
        assert accuracy["Paraleon"][i] > 0.85


def test_fig10b_fct_by_monitoring(benchmark):
    """FCT slowdown averaged over three seeds (per-seed FCT averages
    are dominated by a handful of unlucky elephants, so single-seed
    comparisons are noise)."""
    fct = {}
    seeds = [72, 73, 74]

    def experiment():
        for scheme, label in MONITOR_SCHEMES:
            values = []
            for seed in seeds:
                def install(network, seed=seed):
                    workload = FbHadoopWorkload(load=0.3, duration=0.05, seed=seed)
                    workload.install(network)
                    return workload

                result = run_scheme(scheme, install, 0.15, seed=seed)
                values.append(
                    FctStats.compute(
                        label, result.records, result.network.spec
                    ).overall_avg
                )
            fct[label] = sum(values) / len(values)

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        "fig10b_fct_by_monitoring",
        format_table(
            ["monitoring", "overall avg FCT slowdown (3 seeds)"],
            [[label, f"{value:.2f}"] for label, value in fct.items()],
            title="Fig 10(b) (scaled): FB_Hadoop FCT under each monitoring design",
        ),
    )

    # Paraleon's monitoring gives the best FCT of the four designs.
    assert fct["Paraleon"] == min(fct.values())
