"""Fig. 14: runtime bandwidth and latency with a SolarRPC burst.

Paper setup: an alltoall runs as background traffic on the testbed; a
SolarRPC (all-mice) workload arrives for a window.  Paraleon drives
the parameters latency-friendly while the RPC mice dominate, then
recovers throughput for the remaining alltoall elephants — beating
both static settings on runtime adaptivity.

Reproduction: the testbed-analogue fabric, alltoall background + a
SolarRPC burst; we report mean mice FCT inside the burst window and
mean uplink throughput after it, plus both time series.
"""

from __future__ import annotations

from conftest import emit, run_scheme

from repro.experiments.fct import average_slowdown, slowdown_records
from repro.telemetry.tables import format_series, format_table
from repro.experiments.scenarios import install_testbed_dynamics

SCHEMES = ["default", "expert", "paraleon-tp"]
BURST_START = 0.03
BURST_END = 0.06
RUN_TIME = 0.1


def install(network):
    return install_testbed_dynamics(
        network,
        burst_start=BURST_START,
        burst_duration=BURST_END - BURST_START,
        llm_workers=8,
        rpc_rate_per_host=4000.0,
        seed=92,
    )


def test_fig14_runtime_dynamics(benchmark):
    summary = {}
    series_blocks = []

    def experiment():
        for scheme in SCHEMES:
            result = run_scheme(scheme, install, RUN_TIME, seed=92)
            # Latency for the RPC mice during the burst.
            solar = slowdown_records(
                result.records, result.network.spec, tag="solar"
            )
            mice_slowdown = average_slowdown(solar) if solar else float("inf")
            # Throughput after the burst (alltoall recovery).
            after = [
                s.throughput_util
                for s in result.intervals
                if (s.t_start + s.t_end) / 2 >= BURST_END
            ]
            summary[scheme] = (
                result.tuner_name,
                mice_slowdown,
                sum(after) / len(after),
            )
            series_blocks.append(
                format_series(
                    f"{scheme} O_TP",
                    [
                        ((s.t_start + s.t_end) / 2 * 1e3, s.throughput_util)
                        for s in result.intervals
                    ],
                    x_label="t_ms",
                    y_label="util",
                )
            )
            series_blocks.append(
                format_series(
                    f"{scheme} RTT",
                    [
                        ((s.t_start + s.t_end) / 2 * 1e3, s.mean_rtt * 1e6)
                        for s in result.intervals
                        if s.rtt_samples > 0
                    ],
                    x_label="t_ms",
                    y_label="us",
                )
            )

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = [
        [name, f"{mice:.2f}", f"{tp:.3f}"]
        for name, mice, tp in summary.values()
    ]
    emit(
        "fig14_testbed_dynamics",
        format_table(
            ["scheme", "SolarRPC mice avg slowdown", "mean O_TP after burst"],
            rows,
            title=(
                "Fig 14 (scaled): alltoall background + SolarRPC burst "
                f"({BURST_START * 1e3:.0f}-{BURST_END * 1e3:.0f} ms)"
            ),
        )
        + "\n\n" + "\n".join(series_blocks),
    )

    # Paraleon serves the RPC mice far better than the throughput-
    # greedy Expert setting and recovers throughput at least as well
    # as the latency-greedy Default setting.
    assert summary["paraleon-tp"][1] < summary["expert"][1]
    assert summary["paraleon-tp"][2] >= summary["default"][2] * 0.9
