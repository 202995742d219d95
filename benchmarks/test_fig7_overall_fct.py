"""Fig. 7: overall FCT performance on FB_Hadoop and LLM training.

Paper results: across five schemes (Default, Expert, ACC, DCQCN+,
Paraleon), Paraleon achieves the lowest average and 99.9th-percentile
FCT slowdown on FB_Hadoop at 30% load (at least 3.8% better for
<120 KB mice, up to 61.4% for >1 MB elephants), and up to 54.5% lower
tail FCT for the alltoall LLM workload.

Scaled reproduction: same five schemes on the medium fabric.

* (a)/(b) FB_Hadoop @30%, avg and p99.9 slowdown per size bucket;
* (c)/(d) ON-OFF alltoall, FCT CDF and tail (p95/max).

Shape checks: Paraleon is never the worst scheme, beats both static
settings on overall Hadoop slowdown, and beats Default on the LLM
tail.
"""

from __future__ import annotations

from conftest import emit, run_scheme

from repro.experiments.fct import FctStats, fct_cdf, percentile
from repro.telemetry.tables import format_series, format_table
from repro.experiments.scenarios import MAIN_SCHEMES
from repro.simulator.units import mb, ms
from repro.workloads import FbHadoopWorkload, LlmTrainingWorkload

HADOOP_DURATION = 0.05
RUN_TIME = 0.12


def install_hadoop(network):
    workload = FbHadoopWorkload(load=0.3, duration=HADOOP_DURATION, seed=51)
    workload.install(network)
    return workload


def install_llm(network):
    workload = LlmTrainingWorkload(
        n_workers=8, flow_size=mb(2.0), off_period=ms(10.0), max_rounds=3
    )
    workload.install(network)
    return workload


def test_fig7_fb_hadoop_fct_slowdown(benchmark):
    stats = {}

    def experiment():
        for scheme in MAIN_SCHEMES:
            result = run_scheme(scheme, install_hadoop, RUN_TIME, seed=51)
            assert len(result.records) >= 0.95 * len(result.network.flows)
            stats[scheme] = (
                FctStats.compute(scheme, result.records, result.network.spec),
                result,
            )

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    buckets = list(next(iter(stats.values()))[0].buckets)
    rows = []
    for scheme in MAIN_SCHEMES:
        fct = stats[scheme][0]
        row = [stats[scheme][1].tuner_name]
        for bucket in buckets:
            cell = fct.buckets.get(bucket)
            row.append(f"{cell['avg']:.1f}/{cell['p999']:.0f}" if cell else "-")
        row.append(f"{fct.overall_avg:.2f}")
        rows.append(row)
    emit(
        "fig7ab_hadoop_fct",
        format_table(
            ["scheme"] + [f"{b} avg/p999" for b in buckets] + ["overall avg"],
            rows,
            title="Fig 7(a)/(b) (scaled): FB_Hadoop @30% FCT slowdown by size",
        ),
    )

    overall = {s: stats[s][0].overall_avg for s in MAIN_SCHEMES}
    # Paraleon achieves the best overall average slowdown of all five
    # schemes (the Fig 7(a) headline)...
    assert overall["paraleon"] == min(overall.values())
    # ...wins the mice buckets outright (the "at least 3.8% better
    # below 120 KB" claim)...
    for bucket in buckets[:2]:
        values = {
            s: stats[s][0].buckets[bucket]["avg"]
            for s in MAIN_SCHEMES
            if bucket in stats[s][0].buckets
        }
        assert values["paraleon"] == min(values.values())
    # ...and improves the >1MB elephant *tail* over the Default
    # setting (see EXPERIMENTS.md for the 120KB-1MB caveat: flows that
    # finish before the elephant-phase flip pay for the mice-first
    # tuning in this reproduction).
    big = buckets[-1]
    assert (
        stats["paraleon"][0].buckets[big]["p999"]
        < stats["default"][0].buckets[big]["p999"]
    )


def test_fig7_llm_fct_cdf(benchmark):
    tails = {}
    cdfs = {}

    def experiment():
        for scheme in MAIN_SCHEMES:
            result = run_scheme(scheme, install_llm, 0.3, seed=52)
            llm_records = [r for r in result.records if r.tag == "llm"]
            assert llm_records, f"{scheme}: no completed LLM flows"
            fcts = [r.fct for r in llm_records]
            tails[scheme] = (
                percentile(fcts, 50.0),
                percentile(fcts, 95.0),
                max(fcts),
            )
            cdfs[scheme] = fct_cdf(llm_records, points=12)

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = [
        [scheme, f"{p50 * 1e3:.2f}", f"{p95 * 1e3:.2f}", f"{mx * 1e3:.2f}"]
        for scheme, (p50, p95, mx) in tails.items()
    ]
    series = "\n".join(
        format_series(
            scheme,
            [(t * 1e3, frac) for t, frac in cdfs[scheme]],
            x_label="fct_ms",
            y_label="cdf",
            max_points=12,
        )
        for scheme in MAIN_SCHEMES
    )
    emit(
        "fig7cd_llm_fct",
        format_table(
            ["scheme", "p50 (ms)", "p95 (ms)", "max (ms)"],
            rows,
            title="Fig 7(c)/(d) (scaled): alltoall LLM FCT tail",
        )
        + "\n\nFCT CDFs:\n" + series,
    )

    # Paraleon improves the straggler tail vs the Default setting.
    assert tails["paraleon"][2] < tails["default"][2]
    # And is not the worst scheme at the median either.
    medians = {s: tails[s][0] for s in MAIN_SCHEMES}
    assert medians["paraleon"] < max(medians.values())
