"""TraceSummary math, rendering, and the `repro telemetry` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.telemetry import trace
from repro.telemetry.summary import (
    TraceSummary,
    format_diff,
    format_summary,
)


@pytest.fixture(autouse=True)
def _clean_trace():
    trace.disable()
    yield
    trace.disable()


def _rec(name, kind="event", ts=0.0, pid=1, attrs=None, **extra):
    record = {
        "ts": ts, "run": "r", "pid": pid, "kind": kind, "name": name,
        "parent": None, "attrs": attrs or {},
    }
    record.update(extra)
    return record


def _sample_records():
    return [
        _rec("engine.interval", ts=0.1,
             attrs={"t_end": 0.001, "events": 100, "utility": 0.5,
                    "throughput_util": 0.9, "norm_rtt": 1.1,
                    "pfc_ok": True, "heap": 10, "freelist": 0}),
        _rec("engine.interval", ts=0.2,
             attrs={"t_end": 0.002, "events": 90, "utility": 0.6,
                    "throughput_util": 0.9, "norm_rtt": 1.0,
                    "pfc_ok": True, "heap": 12, "freelist": 4}),
        _rec("controller.kl", ts=0.21,
             attrs={"t": 0.002, "kl": 0.4, "theta": 0.18,
                    "triggered": True, "tuning_active": False,
                    "utility": 0.5, "terms": {}}),
        _rec("controller.kl", ts=0.31,
             attrs={"t": 0.003, "kl": 0.01, "theta": 0.18,
                    "triggered": False, "tuning_active": True,
                    "utility": 0.6, "terms": {}}),
        _rec("controller.dispatch", ts=0.32, attrs={"t": 0.003, "params": {}}),
        _rec("sa.begin", ts=0.33,
             attrs={"temperature": 90.0, "initial_utility": 0.5,
                    "params": {}, "guided": True}),
        _rec("sa.step", ts=0.4,
             attrs={"temperature": 90.0, "iteration": 0, "feedbacks": 1,
                    "params": {}, "utility": 0.6, "accepted": True,
                    "best_utility": 0.6, "terms": {}}),
        _rec("sa.step", ts=0.5,
             attrs={"temperature": 90.0, "iteration": 1, "feedbacks": 2,
                    "params": {}, "utility": 0.4, "accepted": False,
                    "best_utility": 0.6, "terms": {}}),
        _rec("cache.lookup", ts=0.6,
             attrs={"hit": True, "scenario": "fp", "seed": 1}),
        _rec("cache.lookup", ts=0.61,
             attrs={"hit": True, "scenario": "fp", "seed": 1}),
        _rec("cache.lookup", ts=0.62,
             attrs={"hit": False, "scenario": "fp", "seed": 1}),
        # Nested spans: outer 1.0s with an inner 0.4s child -> 0.6s self.
        _rec("eval.task", kind="span", ts=0.3, span="1.2", parent="1.1",
             dur=0.4, attrs={"seed": 1, "kind": "params", "index": 0,
                             "scenario": "fp"}),
        _rec("executor.map", kind="span", ts=0.2, span="1.1", parent=None,
             dur=1.0, attrs={"tasks": 3, "jobs": 2, "strategy": "pool"}),
    ]


def _write_trace(path, records):
    path.write_text(
        "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    )
    return path


# ---------------------------------------------------------------------------
# Summary aggregation
# ---------------------------------------------------------------------------


def test_summary_counts_and_ratios(tmp_path):
    path = _write_trace(tmp_path / "t.jsonl", _sample_records())
    summary = TraceSummary.from_file(path)

    assert summary.records == 13
    assert summary.runs == ["r"]
    assert summary.pids == 1
    assert summary.intervals == 2
    assert summary.kl_checks == 2
    assert summary.kl_triggers == 1
    assert summary.dispatches == 1
    assert summary.sa_steps == 2
    assert summary.sa_accepts == 1
    assert summary.sa_processes == 1
    assert summary.sa_acceptance_rate == pytest.approx(0.5)
    assert summary.cache_hits == 2
    assert summary.cache_misses == 1
    assert summary.cache_hit_ratio == pytest.approx(2 / 3)
    # Wall clock: the outer span ends at ts 0.2 + dur 1.0.
    assert summary.wall_clock == pytest.approx(1.2)


def test_summary_span_self_time(tmp_path):
    path = _write_trace(tmp_path / "t.jsonl", _sample_records())
    summary = TraceSummary.from_file(path)

    outer = summary.spans["executor.map"]
    inner = summary.spans["eval.task"]
    assert outer.count == 1 and inner.count == 1
    assert outer.total == pytest.approx(1.0)
    assert outer.self_time == pytest.approx(0.6)   # 1.0 - child 0.4
    assert inner.self_time == pytest.approx(0.4)   # leaf: self == total
    assert inner.mean == pytest.approx(0.4)


def test_summary_empty_and_zero_division():
    summary = TraceSummary.from_records([])
    assert summary.sa_acceptance_rate == 0.0
    assert summary.cache_hit_ratio == 0.0
    assert summary.wall_clock == 0.0
    assert "SA acceptance" in format_summary(summary)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_format_summary_mentions_key_figures(tmp_path):
    path = _write_trace(tmp_path / "t.jsonl", _sample_records())
    text = format_summary(TraceSummary.from_file(path))
    assert "SA acceptance   : 50.0%" in text
    assert "hit ratio 66.7%" in text
    assert "per-stage wall-clock" in text
    assert "executor.map" in text
    assert "KL decisions    : 2 (1 triggered)" in text


def test_format_diff_two_runs(tmp_path):
    a = TraceSummary.from_file(
        _write_trace(tmp_path / "a.jsonl", _sample_records())
    )
    records_b = _sample_records()
    records_b.append(
        _rec("sa.step", ts=0.7,
             attrs={"temperature": 76.5, "iteration": 2, "feedbacks": 3,
                    "params": {}, "utility": 0.7, "accepted": True,
                    "best_utility": 0.7, "terms": {}}),
    )
    b = TraceSummary.from_file(_write_trace(tmp_path / "b.jsonl", records_b))
    text = format_diff(a, b)
    assert "trace-diff" in text
    assert "SA steps" in text
    assert "executor.map" in text
    assert "B/A" in text


# ---------------------------------------------------------------------------
# CLI: python -m repro telemetry
# ---------------------------------------------------------------------------


def test_cli_telemetry_summary(tmp_path, capsys):
    path = _write_trace(tmp_path / "t.jsonl", _sample_records())
    assert main(["telemetry", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SA acceptance" in out
    assert "hit ratio" in out
    assert "per-stage wall-clock" in out


def test_cli_telemetry_diff(tmp_path, capsys):
    a = _write_trace(tmp_path / "a.jsonl", _sample_records())
    b = _write_trace(tmp_path / "b.jsonl", _sample_records())
    assert main(["telemetry", str(a), str(b)]) == 0
    assert "trace-diff" in capsys.readouterr().out


def test_cli_telemetry_validate_ok(tmp_path, capsys):
    path = _write_trace(tmp_path / "t.jsonl", _sample_records())
    assert main(["telemetry", "--validate", str(path)]) == 0
    assert "all schema-valid" in capsys.readouterr().out


def test_cli_telemetry_validate_failures(tmp_path, capsys):
    records = _sample_records()
    records.append({"ts": -1, "kind": "event"})   # broken record
    path = _write_trace(tmp_path / "bad.jsonl", records)
    assert main(["telemetry", "--validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "schema problem" in out
    assert "line 14" in out


def test_cli_telemetry_missing_file_handling(tmp_path, capsys):
    # Summary and diff treat an absent trace as "nothing to report":
    # a message and exit 0, so post-run tooling can be unconditional.
    missing = tmp_path / "nope.jsonl"
    assert main(["telemetry", str(missing)]) == 0
    assert "nothing to report" in capsys.readouterr().out
    assert main(["telemetry", str(missing), str(missing)]) == 0
    # --validate is a strict check: a missing file is a hard error.
    assert main(["telemetry", "--validate", str(missing)]) == 2
    assert main(
        ["telemetry", "a.jsonl", "b.jsonl", "c.jsonl"]
    ) == 2
