"""Trace emitter: gating, span nesting, JSONL round-trip, schema."""

from __future__ import annotations

import json
import os

import pytest

from repro import telemetry
from repro.telemetry import trace
from repro.telemetry.schema import validate_file, validate_record
from repro.tuning import ParameterSpace, default_params
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer


@pytest.fixture(autouse=True)
def _clean_trace():
    """Never leak an enabled emitter across tests."""
    trace.disable()
    yield
    trace.disable()


def _records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Enable / disable gating
# ---------------------------------------------------------------------------


def test_disabled_by_default_and_noop(tmp_path):
    assert not trace.active
    trace.event("sa.step", {"accepted": True})   # must not raise
    with trace.span("eval.task") as span_id:
        assert span_id is None
    assert trace.trace_path() is None
    assert trace.current_run_id() is None


def test_configure_enables_and_disable_closes(tmp_path):
    path = tmp_path / "t.jsonl"
    emitter = trace.configure(path, run_id="runA")
    try:
        assert trace.active
        assert trace.current_run_id() == "runA"
        assert trace.trace_path() == path
    finally:
        trace.disable()
    assert not trace.active
    assert trace.trace_path() is None
    assert emitter.path == path


def test_configure_without_env_export(tmp_path, monkeypatch):
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    trace.configure(tmp_path / "t.jsonl", run_id="runA")
    assert not [n for n in os.environ if n.startswith("REPRO_")]


def test_apply_session_opens_the_workers_own_emitter(tmp_path):
    """A session applied in a worker joins the parent's file and run id
    under this process's pid with a fresh span counter and stack."""
    path = tmp_path / "worker.jsonl"
    inherited = trace.configure(path, run_id="parent-run")
    # What a fork inherits: the parent's pid, counter and open span.
    inherited._pid = os.getpid() + 1
    next(inherited._span_ids)
    inherited._stack().append("parent.1")
    try:
        session = telemetry.session()
        assert session.trace_path == str(path)
        assert session.run_id == "parent-run"
        telemetry.apply_session(session)
        with trace.span("eval.task", {
            "seed": 1, "kind": "params", "index": 0, "scenario": "s",
        }):
            pass
    finally:
        trace.disable()
    [record] = _records(path)
    assert record["run"] == "parent-run"
    assert record["pid"] == os.getpid()
    assert record["span"] == f"{os.getpid():x}.1"
    assert record["parent"] is None


# ---------------------------------------------------------------------------
# Record structure
# ---------------------------------------------------------------------------


def test_event_record_shape(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path, run_id="r")
    trace.event("cache.lookup", {"hit": False, "scenario": "fp", "seed": 1})
    trace.disable()
    [record] = _records(path)
    assert record["kind"] == "event"
    assert record["name"] == "cache.lookup"
    assert record["run"] == "r"
    assert record["pid"] == os.getpid()
    assert record["parent"] is None
    assert record["ts"] >= 0
    assert record["attrs"] == {"hit": False, "scenario": "fp", "seed": 1}
    assert validate_record(record) == []


def test_span_nesting_and_parenting(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path, run_id="r")
    with trace.span("executor.map",
                    {"tasks": 2, "jobs": 1, "strategy": "serial"}) as outer:
        with trace.span(
            "eval.task",
            {"seed": 1, "kind": "params", "index": 0, "scenario": "fp"},
        ) as inner:
            trace.event("custom.point", {"t_end": 0.01})
        assert inner != outer
    trace.disable()

    records = _records(path)
    # Spans are written at close: inner first, outer last.
    by_name = {r["name"]: r for r in records}
    ev = by_name["custom.point"]
    inner_span = by_name["eval.task"]
    outer_span = by_name["executor.map"]
    assert ev["parent"] == inner_span["span"]
    assert inner_span["parent"] == outer_span["span"]
    assert outer_span["parent"] is None
    assert outer_span["dur"] >= inner_span["dur"] >= 0
    assert outer_span["ts"] <= inner_span["ts"]
    for record in records:
        assert validate_record(record) == []


def test_span_written_even_on_exception(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path)
    with pytest.raises(RuntimeError):
        with trace.span("eval.task"):
            raise RuntimeError("boom")
    trace.disable()
    [record] = _records(path)
    assert record["kind"] == "span" and record["name"] == "eval.task"


def test_reconfigure_appends_to_same_file_new_run(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path, run_id="one")
    trace.event("cache.lookup", {"hit": True})
    trace.configure(path, run_id="two")
    trace.event("cache.lookup", {"hit": False})
    trace.disable()
    runs = [r["run"] for r in _records(path)]
    assert runs == ["one", "two"]


# ---------------------------------------------------------------------------
# JSONL round-trip of SA step records (through the real annealer)
# ---------------------------------------------------------------------------


def test_sa_step_records_round_trip(tmp_path):
    path = tmp_path / "sa.jsonl"
    trace.configure(path, run_id="sa-run")
    schedule = AnnealingSchedule(
        initial_temp=90.0, final_temp=80.0, cooling_rate=0.85,
        iterations_per_temp=3,
    )
    annealer = ImprovedAnnealer(ParameterSpace(), schedule=schedule)
    annealer.begin(default_params(), initial_util=0.5)
    utilities = [0.55, 0.52, 0.6]
    for util in utilities:
        annealer.propose(tp_bias=(True, 0.7))
        annealer.feedback(
            util, terms={"O_TP": 0.9, "O_RTT": 0.8, "O_PFC": 1.0}
        )
    trace.disable()

    count, problems = validate_file(path)
    assert problems == []
    assert count == 4  # sa.begin + 3 sa.step

    records = _records(path)
    begin = records[0]
    assert begin["name"] == "sa.begin"
    assert begin["attrs"]["temperature"] == 90.0
    assert begin["attrs"]["guided"] is True

    steps = [r for r in records if r["name"] == "sa.step"]
    assert [s["attrs"]["utility"] for s in steps] == utilities
    for i, step in enumerate(steps):
        attrs = step["attrs"]
        assert attrs["feedbacks"] == i + 1
        assert isinstance(attrs["accepted"], bool)
        assert isinstance(attrs["params"], dict) and attrs["params"]
        assert attrs["terms"] == {"O_TP": 0.9, "O_RTT": 0.8, "O_PFC": 1.0}
        assert attrs["best_utility"] >= 0.5
    # Every improving move is accepted by Metropolis.
    assert steps[0]["attrs"]["accepted"] is True


def test_annealer_emits_nothing_when_disabled(tmp_path):
    annealer = ImprovedAnnealer(ParameterSpace())
    annealer.begin(default_params(), initial_util=0.5)
    annealer.propose()
    annealer.feedback(0.6)
    assert trace.trace_path() is None


# ---------------------------------------------------------------------------
# Schema validation negatives
# ---------------------------------------------------------------------------


def test_validate_record_flags_problems():
    assert validate_record([]) != []                      # not a dict
    assert validate_record({"ts": 0.0}) != []             # missing keys
    good = {
        "ts": 0.0, "run": "r", "pid": 1, "kind": "event",
        "name": "cache.lookup", "parent": None,
        "attrs": {"hit": True, "scenario": "fp", "seed": 1},
    }
    assert validate_record(good) == []
    bad_kind = dict(good, kind="metric")
    assert validate_record(bad_kind) != []
    span_without_dur = dict(good, kind="span", span="1.1")
    assert validate_record(span_without_dur) != []


def test_validate_file_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = {
        "ts": 0.0, "run": "r", "pid": 1, "kind": "event",
        "name": "x", "parent": None, "attrs": {},
    }
    span = dict(good, kind="span", span="1.1", dur=0.0)
    lines = [json.dumps(good), "not json", json.dumps(span), json.dumps(span)]
    path.write_text("\n".join(lines) + "\n")
    count, problems = validate_file(path)
    assert count == 4
    assert [lineno for lineno, _ in problems] == [2, 4]
    # Span ids are unique per file: a repeat names its first line.
    assert problems[1] == (4, "span id '1.1' repeats line 3")
