"""Fig. 9: live Paraleon vs offline-pretrained static settings.

Paper point: a setting pretrained by Paraleon for a *known* workload
(Pretrained 1 for alltoall training, Pretrained 2 for FB_Hadoop)
cannot adapt to the unknown influx mixture — live Paraleon gets lower
RTT during the influx and higher throughput afterwards than both.

Reproduction: same influx scenario as Fig. 8 with the two pretrained
tuners and live Paraleon.
"""

from __future__ import annotations

from conftest import emit, run_scheme

from repro.telemetry.tables import format_table
from repro.experiments.scenarios import install_influx
from repro.tuning.utility import THROUGHPUT_SENSITIVE_WEIGHTS
from test_fig8_influx import INFLUX_END, INFLUX_START, RUN_TIME, install, phase_means

SCHEMES = ["pretrained-llm", "pretrained-hadoop", "paraleon-tp"]


def test_fig9_pretrained_vs_live(benchmark):
    results = {}

    def experiment():
        for scheme in SCHEMES:
            results[scheme] = run_scheme(
                scheme, install, RUN_TIME, seed=61,
                weights=THROUGHPUT_SENSITIVE_WEIGHTS,
            )

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    summary = {}
    rows = []
    for scheme in SCHEMES:
        result = results[scheme]
        rtt_during, tp_after = phase_means(result)
        summary[scheme] = (rtt_during, tp_after, result.mean_utility(skip=5))
        rows.append(
            [
                result.tuner_name,
                f"{rtt_during * 1e6:.1f}",
                f"{tp_after:.3f}",
                f"{summary[scheme][2]:.4f}",
            ]
        )
    emit(
        "fig9_pretrained",
        format_table(
            [
                "scheme",
                "mean RTT during influx (us)",
                "mean O_TP after influx",
                "mean utility",
            ],
            rows,
            title="Fig 9 (scaled): pretrained static settings vs live Paraleon",
        ),
    )

    # The Fig 9 message: each frozen pretrained setting is good at the
    # phase it was trained for and bad at the other, while live
    # Paraleon does well at *both* — lower influx RTT than the
    # throughput-pretrained setting, and higher post-influx throughput
    # than the latency-pretrained one.
    assert summary["paraleon-tp"][0] < summary["pretrained-llm"][0]
    assert summary["paraleon-tp"][1] > summary["pretrained-hadoop"][1]
