"""The flight recorder must observe, never perturb.

Digest identity (recorder on vs off) is asserted under both engine
modes — sampling happens at monitor-interval boundaries, reads network
state, and never draws randomness or schedules events, so the engine
cannot tell whether it is being recorded.  The second half exercises
the fork-merge recording protocol: pool workers learn from the
telemetry session on each chunk that the run records, attach snapshots
to their results, and ``SweepExecutor`` prunes all but the best-K.
"""

from __future__ import annotations

import pytest

import repro.parallel.executor as executor_mod
from repro.parallel import EvalTask, ScenarioSpec, SweepExecutor
from repro.parallel.tasks import evaluate_task
from repro.simulator.units import kb, ms
from repro.telemetry import recorder
from repro.tuning import default_params


@pytest.fixture(autouse=True)
def _clean_recorder():
    recorder.disable()
    yield
    recorder.disable()


def _spec() -> ScenarioSpec:
    return ScenarioSpec(workload="hadoop", scale="small", duration=0.01,
                        monitor_interval=ms(1.0), seed=3, workload_seed=3,
                        load=0.3)


@pytest.mark.parametrize("mode", ["off", "hybrid"])
def test_digests_identical_with_recorder_on_vs_off(tmp_path, mode):
    task = EvalTask(scenario=_spec(), seed=3, params=default_params(),
                    engine_mode=mode)

    baseline = evaluate_task(task)

    recorder.configure(str(tmp_path / f"{mode}.json"))
    recorded = evaluate_task(task)
    recorder.disable()

    again = evaluate_task(task)

    assert recorded.fct_digest == baseline.fct_digest
    assert recorded.interval_digest == baseline.interval_digest
    assert recorded.utilities == baseline.utilities
    assert again.fct_digest == baseline.fct_digest

    # The recording rides the result only when recording was on.
    assert baseline.recording is None
    assert again.recording is None
    assert recorded.recording is not None
    snap = recorded.recording
    assert snap["meta"]["hybrid_mode"] == mode
    assert snap["samples"]["kept"] == len(snap["time"]) > 0
    assert snap["flows_total"] > 0


def test_recording_snapshots_deterministic(tmp_path):
    task = EvalTask(scenario=_spec(), seed=3, params=default_params())
    recorder.configure(str(tmp_path / "a.json"))
    first = evaluate_task(task)
    second = evaluate_task(task)
    recorder.disable()
    assert first.recording == second.recording


def _grid(n: int):
    base = default_params()
    points = []
    for i in range(n):
        p = base.copy(k_min=kb(10.0 * (i + 1)))
        if p.k_min >= p.k_max:
            p = p.copy(k_max=int(p.k_min * 4))
        points.append(p)
    return points


def test_pool_workers_ship_recordings_pruned_to_best_k(tmp_path, monkeypatch):
    monkeypatch.setattr(executor_mod, "_KEEP_RECORDINGS", 2)
    spec = _spec()
    tasks = [
        EvalTask(scenario=spec, seed=spec.seed, params=p, index=i)
        for i, p in enumerate(_grid(6))
    ]

    # The session on each chunk turns recording on in the workers.
    recorder.configure(str(tmp_path / "sweep.json"))
    try:
        ex = SweepExecutor(jobs=2, cache=None)
        # A known 0.1 s task: no probe, the pool, two tasks per chunk.
        ex._cost_ema[spec.fingerprint()] = 0.1
        results = ex.map(tasks)
    finally:
        recorder.disable()

    carriers = [r for r in results if r.recording is not None]
    assert len(carriers) == 2

    # The survivors are exactly the best-2 by (aborted, -utility, index).
    ranked = sorted(results, key=lambda r: (r.aborted, -r.utility, r.index))
    expected = {r.index for r in ranked[:2]}
    assert {r.index for r in carriers} == expected

    for r in carriers:
        snap = r.recording
        assert snap["samples"]["kept"] > 0
        assert snap["meta"]["n_hosts"] > 0


def test_serial_executor_prunes_recordings_too(tmp_path, monkeypatch):
    monkeypatch.setattr(executor_mod, "_KEEP_RECORDINGS", 1)
    spec = _spec()
    tasks = [
        EvalTask(scenario=spec, seed=spec.seed, params=p, index=i)
        for i, p in enumerate(_grid(4))
    ]
    recorder.configure(str(tmp_path / "serial.json"))
    try:
        results = SweepExecutor(jobs=1, cache=None).map(tasks)
    finally:
        recorder.disable()
    assert sum(r.recording is not None for r in results) == 1
