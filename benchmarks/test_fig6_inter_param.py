"""Fig. 6: inter-parameter impacts (rpg_time_reset x K_max).

Paper observation: driving two parameters in the same throughput-
friendly direction simultaneously does NOT produce monotonically
better throughput — the surface has convex and concave points,
because an over-aggressive combination overshoots the equilibrium,
builds deep queues, and triggers CNPs and PFC that throttle (and
collaterally damage) transmission instead.

Reproduction: a 4:1-oversubscribed fabric running an incast-heavy
alltoall plus victim flows that share paused upstream links (the PFC
head-of-line pattern).  We sweep a 3x3 grid over
(rpg_time_reset, k_max) moving both toward throughput-friendly and
report the throughput / RTT surfaces.  The throughput surface must be
non-monotone along at least one friendly grid line in each dimension.
"""

from __future__ import annotations

from conftest import emit

from repro.telemetry.tables import format_table
from repro.experiments.runner import ExperimentRunner
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.switch import SwitchConfig
from repro.simulator.topology import ClosSpec
from repro.simulator.units import kb, mb, ms, us
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce

TIME_RESETS = [us(1200), us(300), us(40)]   # toward throughput-friendly
K_MAXES = [kb(100), kb(400), kb(1600)]      # toward throughput-friendly


def run_point(time_reset: float, k_max: int) -> tuple:
    params = default_params().copy(rpg_time_reset=time_reset, k_max=k_max)
    spec = ClosSpec(n_tor=4, n_spine=1, hosts_per_tor=4)  # 4:1 oversub
    network = Network(
        NetworkConfig(
            spec=spec,
            seed=43,
            params=params,
            switch=SwitchConfig(buffer_bytes=mb(1.0)),
        )
    )
    workload = AllToAllOnce(workers=list(range(6)), flow_size=mb(1.0))
    workload.install(network)
    victims = [
        network.add_flow(8 + i, 6 + (i % 2), mb(4.0), 0.0, tag="victim")
        for i in range(4)
    ]
    runner = ExperimentRunner(
        network, StaticTuner(params, "grid"), monitor_interval=ms(1.0)
    )
    done = lambda: workload.all_completed() and all(v.completed for v in victims)
    result = runner.run(0.5, stop_when=done)
    intervals = [s for s in result.intervals if s.rtt_samples > 0]
    tp = sum(s.throughput_util for s in intervals) / len(intervals)
    rtt = sum(s.mean_rtt for s in intervals) / len(intervals)
    return tp, rtt


def _non_monotone(values, tolerance=0.995) -> bool:
    return any(b < a * tolerance for a, b in zip(values, values[1:]))


def test_fig6_inter_parameter_impacts(benchmark):
    grid = {}

    def experiment():
        for tr in TIME_RESETS:
            for km in K_MAXES:
                grid[(tr, km)] = run_point(tr, km)

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    headers = ["time_reset \\ k_max"] + [f"{km // 1000}KB" for km in K_MAXES]
    tp_rows, rtt_rows = [], []
    for tr in TIME_RESETS:
        tp_rows.append(
            [f"{tr * 1e6:.0f}us"]
            + [f"{grid[(tr, km)][0]:.3f}" for km in K_MAXES]
        )
        rtt_rows.append(
            [f"{tr * 1e6:.0f}us"]
            + [f"{grid[(tr, km)][1] * 1e6:.1f}" for km in K_MAXES]
        )
    emit(
        "fig6_inter_param",
        format_table(
            headers, tp_rows,
            title=(
                "Fig 6(a) (scaled): throughput (O_TP) surface — both axes "
                "move toward throughput-friendly (down / right)"
            ),
        )
        + "\n\n"
        + format_table(headers, rtt_rows, title="Fig 6(b) (scaled): mean RTT (us) surface"),
    )

    # Shape check 1: non-monotone throughput along friendly rows.
    row_dip = any(
        _non_monotone([grid[(tr, km)][0] for km in K_MAXES])
        for tr in TIME_RESETS
    )
    # Shape check 2: non-monotone along friendly columns too.
    col_dip = any(
        _non_monotone([grid[(tr, km)][0] for tr in TIME_RESETS])
        for km in K_MAXES
    )
    assert row_dip, "no convex/concave point along the k_max axis"
    assert col_dip, "no convex/concave point along the rpg_time_reset axis"

    # Shape check 3: joint aggression queues more than joint caution.
    aggressive_rtt = grid[(TIME_RESETS[-1], K_MAXES[-1])][1]
    conservative_rtt = grid[(TIME_RESETS[0], K_MAXES[0])][1]
    assert aggressive_rtt > conservative_rtt
