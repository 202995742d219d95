"""Fig. 5: single-parameter impacts on throughput and RTT.

Paper setup: a 20x20 alltoall in NS3; sweep one DCQCN parameter at a
time (hai_rate, rate_reduce_monitor_period, rpg_time_reset, K_max)
with everything else at defaults, and watch average throughput and
RTT.  The observation being reproduced: each parameter has a
*throughput-friendly* direction (more throughput, worse RTT) and the
opposite *delay-friendly* direction.

Scaled reproduction: 8x8 alltoall on the medium fabric; for each
parameter we sweep low/default/high and report mean uplink throughput
(O_TP) and mean raw RTT across the run's monitor intervals.
"""

from __future__ import annotations

from conftest import emit

from repro.telemetry.tables import format_table
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import make_network
from repro.simulator.units import kb, mb, mbps, ms, us
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce

# (parameter, sweep values, formatter, throughput-friendly direction)
SWEEPS = [
    ("rpg_hai_rate", [mbps(50), mbps(200), mbps(800)],
     lambda v: f"{v / 1e6:.0f}Mbps", +1),
    ("rate_reduce_monitor_period", [us(10), us(50), us(250)],
     lambda v: f"{v * 1e6:.0f}us", +1),
    ("rpg_time_reset", [us(75), us(300), us(1200)],
     lambda v: f"{v * 1e6:.0f}us", -1),
    ("k_max", [kb(50), kb(200), kb(800)],
     lambda v: f"{v // 1000}KB", +1),
]


def run_point(name: str, value) -> tuple:
    params = default_params().copy(**{name: value})
    if name == "k_max" and params.k_min >= params.k_max:
        params = params.copy(k_min=params.k_max // 4)
    network = make_network("medium", seed=41, params=params)
    workload = AllToAllOnce(n_workers=8, flow_size=mb(2.0))
    workload.install(network)
    runner = ExperimentRunner(
        network, StaticTuner(params, f"{name}={value}"), monitor_interval=ms(1.0)
    )
    result = runner.run(0.2, stop_when=workload.all_completed)
    intervals = [s for s in result.intervals if s.rtt_samples > 0]
    tp = sum(s.throughput_util for s in intervals) / len(intervals)
    rtt = sum(s.mean_rtt for s in intervals) / len(intervals)
    return tp, rtt


def test_fig5_single_parameter_impacts(benchmark):
    results = {}

    def experiment():
        for name, values, _, _ in SWEEPS:
            results[name] = [run_point(name, v) for v in values]

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for name, values, fmt, _ in SWEEPS:
        for value, (tp, rtt) in zip(values, results[name]):
            rows.append([name, fmt(value), f"{tp:.3f}", f"{rtt * 1e6:.1f}"])
    emit(
        "fig5_single_param",
        format_table(
            ["parameter", "value", "O_TP (util)", "mean RTT (us)"],
            rows,
            title=(
                "Fig 5 (scaled): single-parameter impacts on 8x8 "
                "alltoall throughput and RTT"
            ),
        ),
    )

    # Shape checks.  The robust Fig. 5 observation is the direction of
    # the trade-off: the throughput-friendly endpoint of every sweep
    # queues more (higher RTT) than the delay-friendly endpoint, and
    # throughput must not collapse when moving the friendly way.
    for name, values, _, tp_dir in SWEEPS:
        points = results[name]
        tps = [tp for tp, _ in points]
        rtts = [rtt for _, rtt in points]
        friendly_rtt = rtts[-1] if tp_dir > 0 else rtts[0]
        delay_friendly_rtt = rtts[0] if tp_dir > 0 else rtts[-1]
        assert friendly_rtt > delay_friendly_rtt, (
            f"{name}: throughput-friendly endpoint should queue more "
            f"({friendly_rtt * 1e6:.1f}us vs {delay_friendly_rtt * 1e6:.1f}us)"
        )
        friendly_tp = tps[-1] if tp_dir > 0 else tps[0]
        unfriendly_tp = tps[0] if tp_dir > 0 else tps[-1]
        assert friendly_tp >= unfriendly_tp * 0.9, (
            f"{name}: throughput-friendly endpoint lost throughput "
            f"({friendly_tp:.3f} vs {unfriendly_tp:.3f})"
        )
