"""Metric tables and the arithmetic from body samples to metric values.

``BENCHMARK.json`` lists exactly the names below (a test checks both
directions).  Every time is in *reference seconds* (see ``harness``).

End-to-end metrics have one definition that holds on all four
workloads, because the driver asks every run for every one of them:

=================  ==========================================================
``setup_s``        imports + median of the set-ups (input generation, pool
                   or fabric construction, one warm-up body)
``work_per_s``     the workload's unit of work per second, median over
                   bodies: packet-hops (des-alltoall, loop-influx), packets
                   through insert -> KL (monitor-stream), DES evaluations
                   during the cold retune, i.e. evaluations / time from the
                   shift interval to the dispatched TenantRetune (cp-day)
``decision_ms_p50``  monitor interval closed -> the control loop returned
                   its decision for it: ``run_until`` returned ->
                   ``tuner.on_interval`` returned (DES workloads), stream
                   interval fed -> ``collect`` + ``kl_from_previous``
                   returned (monitor-stream), one whole 1024-agent interval,
                   cold or warm day: the median one has nothing to tune
                   (cp-day)
``quality``        simulated, deterministic per seed: mean interval utility
                   (DES workloads), mean ``distribution_accuracy`` against
                   the stream's ground truth (monitor-stream), the retuned
                   best utility (cp-day)
``peak_rss_mb``    ``ru_maxrss`` of the generator (+ largest pool worker)
=================  ==========================================================
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from harness import (
    BodySample,
    Span,
    Stat,
    ledger,
    peak_rss_mb,
    percentile,
    spread,
)

#: name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("decision_ms_p50", "ms", "lower", 0.25),
    ("quality", "1", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: Per-layer times: metric -> (span name, "self" | "total").
SPAN_TIMES = {
    "simulator.build_s": ("simulator.build", "self"),
    "simulator.run_s": ("simulator.run", "self"),
    "simulator.end_interval_s": ("simulator.end_interval", "self"),
    "simulator.set_params_s": ("simulator.set_params", "self"),
    "workloads.install_s": ("workloads.install", "self"),
    "sketch.insert_s": ("sketch.insert", "self"),
    "sketch.read_reset_s": ("sketch.read_reset", "self"),
    "monitor.agent_build_s": ("monitor.agent_build", "self"),
    "monitor.agent_collect_s": ("monitor.agent_collect", "self"),
    "monitor.classify_s": ("monitor.classify", "self"),
    "monitor.snapshot_s": ("monitor.snapshot", "self"),
    "monitor.merge_s": ("monitor.merge", "self"),
    "monitor.kl_s": ("monitor.kl", "self"),
    "tuning.propose_s": ("tuning.propose", "self"),
    "tuning.feedback_s": ("tuning.feedback", "self"),
    "tuning.cache_replay_s": ("tuning.cache_get", "self"),
    "tuning.cache_put_s": ("tuning.cache_put", "self"),
    "tuning.cache_save_s": ("tuning.cache_save", "self"),
    "tuning.cache_load_s": ("tuning.cache_load", "self"),
    "core.on_interval_s": ("core.on_interval", "total"),
    "core.on_interval_self_s": ("core.on_interval", "self"),
    "experiments.runner_self_s": ("experiments.run", "self"),
    "parallel.map_self_s": ("parallel.map", "self"),
    "parallel.pool_run_s": ("parallel.pool_run", "self"),
    "controlplane.aggregate_s": ("controlplane.aggregate", "self"),
    "controlplane.trigger_s": ("controlplane.trigger", "self"),
    "controlplane.tuner_step_s": ("controlplane.tuner", "total"),
    "controlplane.tuner_self_s": ("controlplane.tuner", "self"),
    "controlplane.collect_s": ("controlplane.run", "self"),
}

#: Counts the bodies report under the metric's own name.
COUNTS = [
    ("simulator.builds", "count", "lower"),
    ("simulator.param_dispatches", "count", "lower"),
    ("simulator.hops", "count", "higher"),
    ("simulator.events", "count", "lower"),
    ("simulator.compactions", "count", "lower"),
    ("simulator.pfc_pauses", "count", "lower"),
    ("simulator.ecn_marked", "count", "lower"),
    ("simulator.dropped", "count", "lower"),
    ("simulator.flows_completed", "count", "higher"),
    ("simulator.eval_events", "count", "lower"),
    ("workloads.flows", "count", "higher"),
    ("sketch.packets", "count", "higher"),
    ("sketch.evictions", "count", "lower"),
    ("sketch.memory_bytes", "B", "lower"),
    ("monitor.reports", "count", "higher"),
    ("monitor.tracked_flows", "count", "higher"),
    ("monitor.upload_bytes", "B", "lower"),
    ("monitor.kl_triggers", "count", "lower"),
    ("monitor.trigger_lag_intervals", "count", "lower"),
    ("tuning.sa_steps", "count", "lower"),
    ("tuning.cache_hits", "count", "higher"),
    ("tuning.cache_misses", "count", "lower"),
    ("tuning.cache_hit_ratio", "1", "higher"),
    ("core.kl_triggers", "count", "lower"),
    ("core.restarts", "count", "lower"),
    ("core.dispatches", "count", "lower"),
    ("parallel.tasks", "count", "higher"),
    ("parallel.pool_tasks", "count", "lower"),
    ("parallel.stolen_chunks", "count", "lower"),
    ("parallel.retried_chunks", "count", "lower"),
    ("controlplane.intervals", "count", "higher"),
    ("controlplane.triggers", "count", "lower"),
    ("controlplane.retunes", "count", "higher"),
    ("controlplane.retune_intervals", "count", "lower"),
    ("controlplane.tier_bytes", "B", "lower"),
    ("controlplane.param_update_bytes", "B", "lower"),
]

#: Derived in :func:`layer_values`.
DERIVED = [
    ("simulator.us_per_hop", "us", "lower"),
    ("simulator.events_per_hop", "1", "lower"),
    ("simulator.eval_run_s", "s", "lower"),
    ("sketch.ns_per_pkt", "ns", "lower"),
    ("monitor.report_ms_p95", "ms", "lower"),
    ("tuning.sa_accept_ratio", "1", "higher"),
    ("core.decision_ms_p95", "ms", "lower"),
    ("parallel.map_s", "s", "lower"),
    ("parallel.map_calls", "count", "lower"),
    ("parallel.efficiency", "1", "higher"),
    ("parallel.pool_spawn_s", "s", "lower"),
    ("controlplane.interval_ms_p95", "ms", "lower"),
    ("bench.body_wall_s", "s", "lower"),
    ("bench.ledger_residual_frac", "1", "lower"),
    ("bench.trace_overhead_frac", "1", "lower"),
    ("bench.iqr_frac", "1", "lower"),
    ("bench.speed_factor", "1", "higher"),
]

PER_LAYER = (
    [(name, "s", "lower") for name in SPAN_TIMES] + COUNTS + DERIVED
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def window_ref(sample: BodySample) -> float:
    """Reference seconds the body's work took."""
    window = sample.outcome.work_window
    return (sample.wall if window is None else window) * sample.factor


def end_to_end(
    setup_ref: Sequence[float],
    import_ref: float,
    samples: Sequence[BodySample],
    uses_children: bool,
) -> Dict[str, Stat]:
    decisions = [
        d * s.factor * 1e3 for s in samples for d in s.outcome.decisions
    ]
    return {
        "setup_s": Stat.of([import_ref + s for s in setup_ref]),
        "work_per_s": Stat.of(
            [_ratio(s.outcome.work, window_ref(s)) for s in samples]
        ),
        "decision_ms_p50": Stat.of(decisions),
        "quality": Stat.single(samples[0].outcome.quality),
        "peak_rss_mb": Stat.single(peak_rss_mb(uses_children)),
    }


def layer_values(sample: BodySample, spans: Sequence[Span]) -> Dict[str, float]:
    """Every per-layer metric of one traced body (bench.* come later)."""
    rows = ledger(spans, sample.body_id)
    factor = sample.factor
    counts = {**sample.outcome.counts, **sample.outcome.measured}

    def seconds(span: str, kind: str) -> float:
        return rows.get(span, {}).get(kind, 0.0) * factor

    def calls_ms(span: str) -> List[float]:
        return [
            (s[5] - s[4]) * factor * 1e3
            for s in spans
            if s[2] == sample.body_id and s[3] == span
        ]

    values = {name: 0.0 for name, *_ in PER_LAYER}
    for name, (span, kind) in SPAN_TIMES.items():
        values[name] = seconds(span, kind)
    for name, *_ in COUNTS:
        values[name] = float(counts.get(name, 0))

    decisions_ms = [d * factor * 1e3 for d in sample.outcome.decisions]
    values["simulator.us_per_hop"] = _ratio(
        values["simulator.run_s"] * 1e6, values["simulator.hops"]
    )
    values["simulator.events_per_hop"] = _ratio(
        values["simulator.events"], values["simulator.hops"]
    )
    values["simulator.eval_run_s"] = counts.get("simulator.eval_run_s", 0.0) * factor
    values["sketch.ns_per_pkt"] = _ratio(
        values["sketch.insert_s"] * 1e9, values["sketch.packets"]
    )
    values["monitor.report_ms_p95"] = percentile(calls_ms("monitor.merge"), 0.95)
    values["tuning.sa_accept_ratio"] = _ratio(
        counts.get("tuning.sa_accepts", 0.0), values["tuning.sa_steps"]
    )
    if "core.on_interval" in rows:
        values["core.decision_ms_p95"] = percentile(decisions_ms, 0.95)
    if "controlplane.run" in rows:
        values["controlplane.interval_ms_p95"] = percentile(decisions_ms, 0.95)
    values["parallel.map_s"] = (
        values["parallel.map_self_s"] + values["parallel.pool_run_s"]
    )
    values["parallel.map_calls"] = float(rows.get("parallel.map", {}).get("calls", 0))
    values["parallel.efficiency"] = _ratio(
        values["simulator.eval_run_s"],
        values["parallel.map_s"] * counts.get("parallel.jobs", 1),
    )
    values["parallel.pool_spawn_s"] = counts.get("parallel.pool_spawn_s", 0.0) * factor
    values["bench.ledger_residual_frac"] = _ratio(
        rows["bench.body"]["self"], rows["bench.body"]["total"]
    )
    values["bench.speed_factor"] = factor
    return values


def per_layer(samples: Sequence[BodySample], spans: Sequence[Span]) -> Dict[str, Stat]:
    """Medians over the traced bodies, plus the run-level bench.* values."""
    traced = [s for s in samples if s.traced]
    per_body = [layer_values(s, spans) for s in traced]
    stats = {
        name: Stat.of([body[name] for body in per_body]) for name, *_ in PER_LAYER
    }
    plain_walls = [s.wall * s.factor for s in samples if not s.traced]
    # The wall the ledger sums to is the traced bodies' own.
    body_wall = Stat.of([s.wall * s.factor for s in traced])
    stats["bench.body_wall_s"] = body_wall
    stats["bench.trace_overhead_frac"] = Stat.single(
        _ratio(body_wall.value, Stat.of(plain_walls).value) - 1.0
    )
    stats["bench.iqr_frac"] = Stat.single(spread(plain_walls))
    return stats
