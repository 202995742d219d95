"""Unit tests for run-report rendering (repro.telemetry.report)."""

from __future__ import annotations

import pytest

from repro.telemetry import report


def _recording(n_flows: int = 4, n_samples: int = 5) -> dict:
    time_axis = [i * 1e-3 for i in range(n_samples)]
    series = [0.1 * (i + 1) for i in range(n_samples)]
    counts = list(range(n_samples))
    flows = [
        {"flow_id": i, "src": 0, "dst": 2, "size": 10_000 * (i + 1),
         "start": 0.0, "finish": 1e-3 * (i + 1), "fct": 1e-3 * (i + 1),
         "tag": "hadoop"}
        for i in range(n_flows)
    ]
    return {
        # "hybrid_mode" is in every recording written while the
        # simulator had a second engine; such recordings must render.
        "meta": {"version": 1, "hybrid_mode": "off", "n_hosts": 4,
                 "n_switches": 2, "budget": 512,
                 "weights": [1.0, 0.2, 0.1]},
        "samples": {"seen": n_samples, "kept": n_samples, "stride": 1},
        "time": time_axis,
        "network": {"utility": series, "throughput_util": series,
                    "norm_rtt": [1.0 + s for s in series],
                    "pfc_ok": [1.0] * n_samples,
                    "flows_completed": counts},
        "qp": {"n": [2] * n_samples, "rate_mean": series,
               "rate_min": series, "alpha_mean": series,
               "alpha_max": series, "cnps": counts},
        "switches": {
            "tor0": {"queue_bytes": counts, "ecn_marked": counts,
                     "pfc_pauses": [0] * n_samples,
                     "dropped": [0] * n_samples},
            "spine0": {"queue_bytes": counts, "ecn_marked": counts,
                       "pfc_pauses": counts, "dropped": [0] * n_samples},
        },
        "flows": flows,
        "flows_total": n_flows,
    }


# ---------------------------------------------------------------------------
# HTML / markdown rendering
# ---------------------------------------------------------------------------


def test_render_html_contains_all_sections():
    html = report.render_html(_recording())
    for section_id in ("run-meta", "fct-cdf", "queue-depth", "rate-alpha",
                      "pfc-events", "utility"):
        assert f'id="{section_id}"' in html
    assert "<svg" in html
    assert "tor0" in html and "spine0" in html


def test_render_html_zero_flows_is_graceful():
    rec = _recording(n_flows=0)
    rec["flows_total"] = 0
    html = report.render_html(rec)
    assert "no flows completed" in html
    assert 'id="fct-cdf"' in html        # section still renders


def test_render_html_notes_flow_decimation():
    rec = _recording(n_flows=4)
    rec["flows_total"] = 1000            # 996 decimated away
    html = report.render_html(rec)
    assert "1000" in html


def test_render_html_embeds_trace_summary(tmp_path):
    from repro.telemetry import trace
    from repro.telemetry.summary import TraceSummary

    path = tmp_path / "t.jsonl"
    trace.configure(path, run_id="report-test")
    try:
        with trace.span("executor.map",
                        {"tasks": 1, "jobs": 1, "strategy": "serial"}):
            pass
    finally:
        trace.disable()
    summary = TraceSummary.from_file(str(path))

    html = report.render_html(_recording(), trace_summary=summary)
    assert 'id="trace-summary"' in html
    assert "executor.map" in html


def test_render_markdown_has_fct_table():
    md = report.render_markdown(_recording())
    assert "FCT" in md
    assert "tor0" in md


def test_render_dispatches_and_rejects_unknown_format():
    rec = _recording()
    assert report.render(rec, fmt="html").startswith("<!DOCTYPE html>")
    assert "<svg" not in report.render(rec, fmt="markdown")
    with pytest.raises(ValueError):
        report.render(rec, fmt="pdf")


def test_empty_recording_renders_without_samples():
    rec = _recording(n_flows=0, n_samples=0)
    rec["flows_total"] = 0
    html = report.render_html(rec)
    assert "no samples" in html
