"""Unit tests for the persistent worker pool (repro.parallel.pool).

Everything here runs real forked workers on a tiny scenario; the
digest-identity contract (pool == inline, bit for bit) is what makes
crashes and retries invisible to results.  Tests that
inject worker behaviour rely on the Linux fork start method — a forked
child inherits monkeypatched module state — and are skipped elsewhere.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.parallel import (
    EvalTask,
    ScenarioSpec,
    SweepExecutor,
    WorkerPool,
    close_shared_pool,
    evaluate_task,
    get_shared_pool,
)
from repro.parallel import executor as executor_mod
from repro.parallel import worker as worker_mod
from repro.telemetry import recorder, trace
from repro.telemetry.registry import get_registry
from repro.tuning.parameters import default_params

TINY = ScenarioSpec(workload="hadoop", scale="small", duration=0.004)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection relies on fork inheritance",
)


@pytest.fixture(autouse=True)
def _fresh_shared_pool():
    close_shared_pool()
    yield
    close_shared_pool()


def _tasks(n=4, spec=TINY):
    base = default_params()
    return [
        EvalTask(
            scenario=spec,
            seed=spec.seed,
            params=base.copy(p_max=0.05 + 0.1 * i),
            index=i,
        )
        for i in range(n)
    ]


def _chunks(tasks, size=1):
    return [
        (tuple(range(i, min(i + size, len(tasks)))), tasks[i : i + size])
        for i in range(0, len(tasks), size)
    ]


def _counter(name):
    return get_registry().snapshot()["counters"].get(name, 0.0)


# ---------------------------------------------------------------------------
# WorkerPool basics
# ---------------------------------------------------------------------------


def test_pool_results_match_inline_and_ship_metrics():
    tasks = _tasks(4)
    inline = [evaluate_task(t) for t in tasks]
    pool = WorkerPool(2)
    try:
        completed, failed = pool.run(_chunks(tasks, 2))
    finally:
        pool.close()
    assert failed == []
    assert len(completed) == 2
    parent = os.getpid()
    for chunk_id, (results, metrics) in completed.items():
        assert metrics["counters"].get("repro_evals_total") == len(chunk_id)
        for pos, result in zip(chunk_id, results):
            assert result.fct_digest == inline[pos].fct_digest
            assert result.interval_digest == inline[pos].interval_digest
            assert result.worker_pid != parent


def test_pool_workers_persist_across_runs():
    tasks = _tasks(2)
    pool = WorkerPool(2)
    try:
        pids_before = set(pool.worker_pids())
        pool.run(_chunks(tasks))
        pool.run(_chunks(tasks))
        pids_after = set(pool.worker_pids())
    finally:
        pool.close()
    assert pids_before == pids_after
    assert os.getpid() not in pids_before


def test_pool_rejects_bad_sizes_and_reuse_after_close():
    with pytest.raises(ValueError):
        WorkerPool(0)
    pool = WorkerPool(1)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError):
        pool.run(_chunks(_tasks(1)))


# ---------------------------------------------------------------------------
# Teardown
# ---------------------------------------------------------------------------

_TEARDOWN_SCRIPT = textwrap.dedent(
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.parallel import EvalTask, ScenarioSpec, WorkerPool, evaluate_task
    from repro.tuning.parameters import default_params

    spec = ScenarioSpec(workload="hadoop", scale="small", duration=0.004)
    tasks = [EvalTask(scenario=spec, seed=spec.seed, params=default_params())]
    inline = [evaluate_task(t) for t in tasks]
    pool = WorkerPool(1)
    pids = set(pool.worker_pids())
    completed, failed = pool.run([((0,), tasks)])
    pool.close()
    assert pids and failed == [], (pids, failed)
    ((results, _metrics),) = completed.values()
    assert [r.fct_digest for r in results] == [r.fct_digest for r in inline]
    alive = {child.pid for child in multiprocessing.active_children()}
    assert not alive & pids, alive & pids
    assert resource_tracker._resource_tracker._pid is None, "tracker started"
    print("clean")
    """
)


def test_closed_pool_leaves_no_process_behind():
    """Results ride the pipe, so a pool starts no resource tracker and
    ``close()`` leaves neither workers nor helpers running.  A fresh
    interpreter, so no earlier test can have started a tracker."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _TEARDOWN_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "clean"


# ---------------------------------------------------------------------------
# Dispatch width
# ---------------------------------------------------------------------------


def test_pool_runs_no_more_evaluations_than_its_width(monkeypatch, cores):
    """Four chunks on one worker with cores to spare: every chunk runs
    in that worker, none in the parent."""
    cores(4)
    spec = ScenarioSpec(workload="hadoop", scale="small", duration=0.02)
    tasks = _tasks(4, spec)
    inline = [evaluate_task(t) for t in tasks]
    pool = WorkerPool(1)
    monkeypatch.setattr(executor_mod, "get_shared_pool", lambda jobs: pool)
    try:
        (worker_pid,) = pool.worker_pids()
        ex = SweepExecutor(jobs=2)
        # A known 1 s task: no probe, the pool, one task per chunk.
        ex._cost_ema[spec.fingerprint()] = 1.0
        results = ex.map(tasks)
    finally:
        pool.close()
    assert ex.last_strategy == "process"
    assert [r.worker_pid for r in results] == [worker_pid] * 4
    assert [r.fct_digest for r in results] == [r.fct_digest for r in inline]


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------


def _crash_once(sentinel: str):
    def hook(chunk_id, tasks):
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as fh:
                fh.write(str(os.getpid()))
            os._exit(1)

    return hook


@fork_only
def test_crashed_worker_chunk_is_retried_with_identical_digests(
    monkeypatch, tmp_path, cores
):
    """Kill a persistent worker mid-chunk; results must not notice.

    The crash hook is inherited through fork, fires exactly once (a
    sentinel file is cross-process state), and takes the worker down
    hard with ``os._exit`` — no pickling error, no clean EOF handshake,
    the pipe just dies.  The executor must detect the crash, retry the
    lost chunk in-process at original granularity, and produce results
    and metric totals identical to an inline run.
    """
    cores(8)
    tasks = _tasks(4)
    inline = SweepExecutor(jobs=1).map(tasks)

    monkeypatch.setattr(
        worker_mod, "_CRASH_HOOK", _crash_once(str(tmp_path / "boom"))
    )
    close_shared_pool()  # the next crew forks with the hook in place
    crashes_before = _counter("repro_executor_worker_crashes_total")
    retried_before = _counter("repro_executor_retried_chunks_total")
    evals_before = _counter("repro_evals_total")
    ex = SweepExecutor(jobs=2)
    # A known 1 s task: no probe, the pool, one task per chunk.
    ex._cost_ema[TINY.fingerprint()] = 1.0
    results = ex.map(tasks)

    assert (tmp_path / "boom").exists(), "crash hook never fired"
    assert _counter("repro_executor_retried_chunks_total") > retried_before
    assert _counter("repro_executor_worker_crashes_total") > crashes_before
    assert [r.fct_digest for r in results] == [
        r.fct_digest for r in inline
    ]
    assert [r.interval_digest for r in results] == [
        r.interval_digest for r in inline
    ]
    assert [r.utilities for r in results] == [r.utilities for r in inline]
    # Fork-merge accounting survives the crash: the killed worker's
    # partial registry died with it, and the retry re-counted the lost
    # evaluations in the parent — net exactly one count per task.
    assert _counter("repro_evals_total") - evals_before == len(tasks)


def _crash_always(chunk_id, tasks):
    os._exit(1)


@fork_only
def test_chunks_outliving_every_worker_are_each_retried_once(
    monkeypatch, tmp_path, cores
):
    """Every worker dies on its first chunk and chunks are still queued.

    The queued chunks fail like the lost ones: each of the four is
    retried in-process exactly once, with one ``executor.retry`` event
    and one retried-chunks increment apiece, and nothing else runs
    them.
    """
    cores(8)
    tasks = _tasks(4)
    inline = SweepExecutor(jobs=1).map(tasks)

    monkeypatch.setattr(worker_mod, "_CRASH_HOOK", _crash_always)
    close_shared_pool()  # the next crew forks with the hook in place
    retried_before = _counter("repro_executor_retried_chunks_total")
    trace_path = tmp_path / "crash.jsonl"
    trace.configure(str(trace_path))
    try:
        ex = SweepExecutor(jobs=2)
        # A known 1 s task: no probe, the pool, one task per chunk.
        ex._cost_ema[TINY.fingerprint()] = 1.0
        results = ex.map(tasks)
    finally:
        trace.disable()

    records = map(json.loads, trace_path.read_text().splitlines())
    retries = [
        r["attrs"]["positions"]
        for r in records
        if r["name"] == "executor.retry"
    ]
    assert sorted(retries) == [[0], [1], [2], [3]]
    retried = _counter("repro_executor_retried_chunks_total") - retried_before
    assert retried == 4
    assert {r.worker_pid for r in results} == {os.getpid()}
    assert [r.fct_digest for r in results] == [
        r.fct_digest for r in inline
    ]
    assert [r.interval_digest for r in results] == [
        r.interval_digest for r in inline
    ]


@fork_only
def test_pool_respawns_crashed_workers_between_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(
        worker_mod, "_CRASH_HOOK", _crash_once(str(tmp_path / "boom"))
    )
    tasks = _tasks(2)
    pool = WorkerPool(1)
    try:
        first_pids = set(pool.worker_pids())
        completed, failed = pool.run(_chunks(tasks, 2))
        assert completed == {} and [reason for _, reason in failed] == [
            "crash"
        ]
        # Next run heals the crew: new pid, chunk evaluated normally.
        completed, failed = pool.run(_chunks(tasks, 2))
        second_pids = set(pool.worker_pids())
    finally:
        pool.close()
    assert failed == []
    assert len(completed) == 1
    assert first_pids and second_pids and first_pids != second_pids


# ---------------------------------------------------------------------------
# Telemetry propagation and the shared pool
# ---------------------------------------------------------------------------


def test_trace_configured_after_spawn_reaches_same_workers(tmp_path):
    """The session rides every chunk message: switching telemetry on
    after the crew spawned needs no respawn, and switching it off
    reaches the workers the same way."""
    tasks = _tasks(2)
    path = tmp_path / "late.jsonl"
    pool = WorkerPool(2)
    try:
        pids_before = set(pool.worker_pids())
        completed, _ = pool.run(_chunks(tasks))
        assert all(
            r.recording is None for rs, _ in completed.values() for r in rs
        )
        trace.configure(path, run_id="late")
        recorder.configure()
        try:
            completed, _ = pool.run(_chunks(tasks))
        finally:
            recorder.disable()
            trace.disable()
        assert all(
            r.recording is not None for rs, _ in completed.values() for r in rs
        )
        written = path.read_text()
        pool.run(_chunks(tasks))  # off again: the workers stop writing
        pids_after = set(pool.worker_pids())
    finally:
        pool.close()
    assert pids_before == pids_after
    assert path.read_text() == written
    records = [json.loads(line) for line in written.splitlines()]
    spans = [r for r in records if r["name"] == "eval.task"]
    assert len(spans) == 2
    assert {r["pid"] for r in spans} == pids_before
    assert {r["run"] for r in records} == {"late"}


def test_get_shared_pool_reuses_and_grows():
    small = get_shared_pool(1)
    assert get_shared_pool(1) is small
    bigger = get_shared_pool(2)
    assert bigger is not small
    assert small.closed
    assert bigger.jobs == 2
    # A smaller request keeps the bigger crew.
    assert get_shared_pool(1) is bigger
    close_shared_pool()
    assert bigger.closed
