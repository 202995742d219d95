"""Fig. 8: traffic dynamics under a workload "influx".

Paper setup: an LLM alltoall is in its ON period when a 30 ms
FB_Hadoop burst arrives and competes.  Paraleon detects the FSD shift
(mice flood in), retunes for low RTT during the influx, then retunes
for throughput once the mice conclude — so it shows *lower RTT during
the influx* and *higher throughput after it* than the other schemes.

Reproduction: same scenario on the medium fabric; we compare the mean
raw RTT inside the influx window and the mean uplink throughput after
it across the five schemes, and print both time series.
"""

from __future__ import annotations

from conftest import emit, run_scheme

from repro.telemetry.tables import format_series, format_table
from repro.experiments.scenarios import MAIN_SCHEMES, install_influx

# LLM training is the background workload, so Paraleon runs with the
# paper's throughput-sensitive weighting (Section III-C example).
FIG8_SCHEMES = ["default", "expert", "acc", "dcqcn+", "paraleon-tp"]
from repro.simulator.units import ms

INFLUX_START = 0.03
INFLUX_END = 0.06
RUN_TIME = 0.1


def install(network):
    return install_influx(
        network,
        influx_start=INFLUX_START,
        influx_duration=INFLUX_END - INFLUX_START,
        llm_workers=8,
        hadoop_load=0.5,
        seed=61,
    )


def phase_means(result):
    during_rtt, after_tp = [], []
    for interval in result.intervals:
        mid = (interval.t_start + interval.t_end) / 2
        if INFLUX_START <= mid < INFLUX_END and interval.rtt_samples > 0:
            during_rtt.append(interval.mean_rtt)
        elif mid >= INFLUX_END:
            after_tp.append(interval.throughput_util)
    return (
        sum(during_rtt) / len(during_rtt),
        sum(after_tp) / len(after_tp),
    )


def test_fig8_workload_influx(benchmark):
    results = {}

    def experiment():
        for scheme in FIG8_SCHEMES:
            results[scheme] = run_scheme(scheme, install, RUN_TIME, seed=61)

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    series_blocks = []
    summary = {}
    for scheme in FIG8_SCHEMES:
        result = results[scheme]
        rtt_during, tp_after = phase_means(result)
        summary[scheme] = (rtt_during, tp_after)
        rows.append(
            [result.tuner_name, f"{rtt_during * 1e6:.1f}", f"{tp_after:.3f}"]
        )
        pairs = [
            ((s.t_start + s.t_end) / 2 * 1e3, s.throughput_util)
            for s in result.intervals
        ]
        series_blocks.append(
            format_series(f"{scheme} O_TP", pairs, x_label="t_ms", y_label="util")
        )
        rtt_pairs = [
            ((s.t_start + s.t_end) / 2 * 1e3, s.mean_rtt * 1e6)
            for s in result.intervals
            if s.rtt_samples > 0
        ]
        series_blocks.append(
            format_series(f"{scheme} RTT", rtt_pairs, x_label="t_ms", y_label="us")
        )

    emit(
        "fig8_influx",
        format_table(
            ["scheme", "mean RTT during influx (us)", "mean O_TP after influx"],
            rows,
            title=(
                "Fig 8 (scaled): LLM background + FB_Hadoop influx "
                f"({INFLUX_START * 1e3:.0f}-{INFLUX_END * 1e3:.0f} ms)"
            ),
        )
        + "\n\n" + "\n".join(series_blocks),
    )

    # Shape checks: during the influx Paraleon keeps RTT well below
    # the throughput-greedy schemes (Expert, DCQCN+); after the influx
    # its throughput beats the latency-greedy Default setting.
    paraleon = summary["paraleon-tp"]
    assert paraleon[0] < summary["expert"][0]
    assert paraleon[0] < summary["dcqcn+"][0]
    assert paraleon[1] > summary["default"][1]
    # And Paraleon is never the worst scheme on either phase metric.
    assert paraleon[0] < max(v[0] for v in summary.values())
    assert paraleon[1] > min(v[1] for v in summary.values())
