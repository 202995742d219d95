"""Ablations on the monitoring design choices DESIGN.md calls out.

1. **TOS dedup marking** (Keypoint 1): without it, a cross-fabric flow
   is inserted into every ToR sketch it passes, so the aggregated FSD
   double counts — we measure the inflation directly.
2. **Ternary states under sketch pressure** (Keypoint 2 + Elastic
   Sketch sizing): classification accuracy of the sliding-window
   pipeline vs the naive rule across heavy-part sizes, at a fixed
   monitor interval.
"""

from __future__ import annotations

from conftest import emit

from repro.telemetry.tables import format_table
from repro.experiments.scenarios import make_network
from repro.monitor.agent import NaiveSketchAgent, SwitchAgent
from repro.monitor.aggregate import FsdAggregator
from repro.simulator.units import kb, ms
from repro.sketch.elastic import ElasticSketchConfig
from repro.workloads import FbHadoopWorkload

TAU = kb(100.0)


def test_ablation_tos_marking(benchmark):
    """Flow-count inflation without dedup marking."""
    inflation = {}

    def experiment():
        for dedup in (True, False):
            network = make_network("medium", seed=111)
            FbHadoopWorkload(load=0.3, duration=0.03, seed=111).install(network)
            agents = [
                SwitchAgent(t, tau=TAU, dedup_marking=dedup)
                for t in network.tors
            ]
            aggregator = FsdAggregator(agents)
            counts, truths = [], []
            for _ in range(25):
                network.run_until(network.sim.now + ms(1.0))
                stats = network.stats.end_interval()
                fsd = aggregator.collect(network.sim.now)
                if stats.flow_bytes:
                    counts.append(fsd.total_flows)
                    truths.append(len(stats.flow_bytes))
            # Mean measured-flows / true-active-flows ratio.
            inflation[dedup] = sum(counts) / max(sum(truths), 1)

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        "ablation_tos_marking",
        format_table(
            ["dedup marking", "measured flows / active flows"],
            [
                ["on (Paraleon)", f"{inflation[True]:.2f}"],
                ["off (overlap)", f"{inflation[False]:.2f}"],
            ],
            title="Ablation: TOS dedup marking (Keypoint 1)",
        ),
    )

    # Without dedup the network-wide FSD over-counts cross-ToR flows.
    assert inflation[False] > inflation[True] * 1.2


def test_ablation_ternary_states_vs_sketch_size(benchmark):
    """Sliding-window advantage holds across sketch provisioning."""
    accuracy = {}
    heavy_sizes = [64, 256, 1024]

    def measure(agent_factory, seed=112):
        network = make_network("medium", seed=seed)
        workload = FbHadoopWorkload(load=0.3, duration=0.03, seed=seed)
        workload.install(network)
        truth = {f.flow_id: f.size >= TAU for f in workload.flows}
        agents = [agent_factory(t) for t in network.tors]
        aggregator = FsdAggregator(agents)
        scores = []
        for _ in range(30):
            network.run_until(network.sim.now + ms(1.0))
            stats = network.stats.end_interval()
            fsd = aggregator.collect(network.sim.now)
            live = {f: truth[f] for f in stats.flow_bytes if f in truth}
            if live:
                scores.append(fsd.classification_accuracy(live))
        return sum(scores) / len(scores)

    def experiment():
        for heavy in heavy_sizes:
            config = ElasticSketchConfig(heavy_buckets=heavy, light_width=heavy * 4)
            accuracy[("paraleon", heavy)] = measure(
                lambda t: SwitchAgent(t, sketch_config=config, tau=TAU)
            )
            accuracy[("naive", heavy)] = measure(
                lambda t: NaiveSketchAgent(t, sketch_config=config, tau=TAU)
            )

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = [
        [
            f"{heavy} buckets",
            f"{accuracy[('paraleon', heavy)] * 100:.1f}%",
            f"{accuracy[('naive', heavy)] * 100:.1f}%",
        ]
        for heavy in heavy_sizes
    ]
    emit(
        "ablation_ternary_states",
        format_table(
            ["heavy part size", "sliding window", "single interval"],
            rows,
            title="Ablation: ternary states vs sketch provisioning (Keypoint 2)",
        ),
    )

    for heavy in heavy_sizes:
        assert accuracy[("paraleon", heavy)] > accuracy[("naive", heavy)]
