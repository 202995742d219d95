"""Unit tests for the flight recorder (repro.telemetry.recorder).

The load-bearing property is the RingBuffer decimation invariant: the
retained set is a pure function of the number of samples offered —
``rows == [i for i in range(n) if i % stride == 0]`` — and its size is
bounded by the budget for any run length.  Everything else (snapshot
shape, session round-trip, persistence) is plumbing around that.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.units import kb, mb, ms
from repro.telemetry import recorder
from repro.telemetry.recorder import RingBuffer, RunRecording


@pytest.fixture(autouse=True)
def _clean_recorder():
    recorder.disable()
    yield
    recorder.disable()


# ---------------------------------------------------------------------------
# RingBuffer decimation invariant
# ---------------------------------------------------------------------------


@given(n=st.integers(min_value=0, max_value=3000),
       budget=st.integers(min_value=2, max_value=64))
@settings(max_examples=60, deadline=None)
def test_ring_buffer_decimation_invariant(n, budget):
    rb = RingBuffer(budget)
    for i in range(n):
        rb.append(i)
    assert rb.seen == n
    assert len(rb) <= budget
    # Retained set is exactly the stride-aligned prefix samples.
    assert rb.rows() == [i for i in range(n) if i % rb.stride == 0]
    # Stride only ever doubles from 1.
    assert rb.stride & (rb.stride - 1) == 0


@given(n=st.integers(min_value=0, max_value=2000),
       budget=st.integers(min_value=2, max_value=32))
@settings(max_examples=30, deadline=None)
def test_ring_buffer_deterministic_across_feeds(n, budget):
    a, b = RingBuffer(budget), RingBuffer(budget)
    for i in range(n):
        a.append(i)
        b.append(i)
    assert a.rows() == b.rows()
    assert a.stride == b.stride
    assert a.seen == b.seen


def test_ring_buffer_rejects_tiny_budget():
    with pytest.raises(ValueError):
        RingBuffer(1)
    with pytest.raises(ValueError):
        RingBuffer(0)


def test_ring_buffer_admit_skips_decimated_indices():
    rb = RingBuffer(4)
    admitted = [i for i in range(40) if rb.admit() and (rb.push(i) or True)]
    # Everything retained was admitted; overflow decimation then thins
    # the retained set down to the final stride.
    assert rb.rows() == [i for i in admitted if i % rb.stride == 0]
    assert len(rb) <= 4


# ---------------------------------------------------------------------------
# Module-level configure / disable / session round-trip
# ---------------------------------------------------------------------------


def test_configure_disable_round_trip(tmp_path):
    path = str(tmp_path / "rec.json")
    assert not recorder.active
    recorder.configure(path)
    assert recorder.active
    assert recorder.record_path() == path
    recorder.disable()
    assert not recorder.active
    assert recorder.record_path() is None


def test_apply_session_turns_recording_on_without_a_path(tmp_path):
    recorder.configure(str(tmp_path / "parent.json"))
    session = telemetry.session()
    assert session.record is True
    recorder.disable()
    # A worker records; only the parent knows (and writes) the path.
    telemetry.apply_session(session)
    assert recorder.active
    assert recorder.record_path() is None
    telemetry.apply_session(telemetry.Session(
        trace_path=None, run_id=None, record=False,
        log_level=session.log_level,
    ))
    assert not recorder.active


def test_configure_without_export_keeps_env_clean(tmp_path, monkeypatch):
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    recorder.configure(str(tmp_path / "rec.json"))
    assert recorder.active
    assert not [n for n in os.environ if n.startswith("REPRO_")]


def test_run_recording_budget_is_a_constant(monkeypatch):
    monkeypatch.setenv("REPRO_RECORD_BUDGET", "16")  # the budget reads no env
    net = Network(NetworkConfig(seed=1))
    rec = RunRecording(net)
    assert recorder.SAMPLE_BUDGET == 512
    assert rec.snapshot()["meta"]["budget"] == 512


# ---------------------------------------------------------------------------
# RunRecording against a real network
# ---------------------------------------------------------------------------


class _Interval:
    """Minimal stand-in exposing the attributes sample() reads."""

    def __init__(self, t_end):
        self.t_end = t_end
        self.throughput_util = 0.5
        self.norm_rtt = 1.25
        self.pfc_ok = 1.0


def _run_tiny(tiny_spec):
    net = Network(NetworkConfig(spec=tiny_spec, seed=1))
    net.add_flow(0, 2, kb(64.0), 0.0)
    net.add_flow(1, 3, mb(10.0), 0.0)
    net.run_until(ms(2.0))
    return net


def test_run_recording_snapshot_shape(tiny_spec):
    net = _run_tiny(tiny_spec)
    rec = RunRecording(net, budget=8, weights=(1.0, 0.2, 0.1))
    stats = net.stats.end_interval()
    rec.sample(stats, measured_utility=0.7)
    snap = rec.snapshot()

    assert snap["meta"]["version"] == recorder.RECORDING_VERSION
    assert snap["meta"]["n_hosts"] == 4
    assert snap["meta"]["weights"] == [1.0, 0.2, 0.1]
    assert snap["samples"] == {"seen": 1, "kept": 1, "stride": 1}
    assert snap["time"] == [stats.t_end]
    assert snap["network"]["utility"] == [0.7]
    assert len(snap["switches"]) == 3          # 2 ToR + 1 spine
    for series in snap["switches"].values():
        assert set(series) == {"queue_bytes", "ecn_marked",
                               "pfc_pauses", "dropped"}
        assert all(len(v) == 1 for v in series.values())
    assert snap["qp"]["n"] == [snap["qp"]["n"][0]]
    assert snap["flows_total"] == len(net.records)
    # Completed-flow rows carry the persistence-compatible keys.
    if snap["flows"]:
        assert set(snap["flows"][0]) == {"flow_id", "src", "dst", "size",
                                         "start", "finish", "fct", "tag"}
    # Snapshots must be plain JSON (they ride the fork-merge protocol).
    assert json.loads(json.dumps(snap)) == snap


def test_run_recording_budget_bounds_memory(tiny_spec):
    net = Network(NetworkConfig(spec=tiny_spec, seed=1))
    rec = RunRecording(net, budget=8)
    for i in range(1000):
        rec.sample(_Interval(t_end=i * 1e-3), measured_utility=0.0)
    snap = rec.snapshot()
    assert snap["samples"]["seen"] == 1000
    assert snap["samples"]["kept"] <= 8
    # Lockstep decimation: every series shares the time axis length.
    kept = snap["samples"]["kept"]
    assert len(snap["time"]) == kept
    assert all(len(v) == kept for v in snap["network"].values())
    assert all(len(v) == kept for v in snap["qp"].values())
    # Retained timestamps are the stride-aligned ones.
    stride = snap["samples"]["stride"]
    assert snap["time"] == [i * 1e-3 for i in range(1000) if i % stride == 0]


def test_qp_sample_zero_when_idle(tiny_spec):
    net = Network(NetworkConfig(spec=tiny_spec, seed=1))
    qp = net.qp_sample()
    assert qp["n"] == 0
    assert qp["rate_sum"] == 0.0 and qp["cnps"] == 0


def test_qp_sample_reports_active_qps(tiny_spec):
    net = _run_tiny(tiny_spec)
    # The 10 MB flow is still in flight at 2 ms on these 10G links.
    qp = net.qp_sample()
    assert qp["n"] >= 1
    assert qp["rate_sum"] > 0.0
    assert qp["rate_min"] > 0.0
    assert 0.0 <= qp["alpha_max"] <= 1.0


# ---------------------------------------------------------------------------
# Snapshot persistence
# ---------------------------------------------------------------------------


def test_write_and_load_snapshot_round_trip(tmp_path, tiny_spec):
    net = _run_tiny(tiny_spec)
    rec = RunRecording(net, budget=8)
    rec.sample(net.stats.end_interval(), measured_utility=0.4)
    snap = rec.snapshot()

    target = tmp_path / "nested" / "rec.json"
    written = recorder.write_snapshot(snap, str(target))
    assert written == str(target)
    assert recorder.load_snapshot(str(target)) == snap


def test_write_snapshot_uses_configured_path(tmp_path):
    path = str(tmp_path / "rec.json")
    recorder.configure(path)
    recorder.write_snapshot({"meta": {}})
    assert json.loads(open(path).read()) == {"meta": {}}


def test_write_snapshot_without_path_raises():
    with pytest.raises(ValueError):
        recorder.write_snapshot({"meta": {}})
