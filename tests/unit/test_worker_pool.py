"""Unit tests for the persistent worker pool (repro.parallel.pool).

Everything here runs real forked workers on a tiny scenario; the
digest-identity contract (pool == inline, bit for bit) is what makes
crash/steal variations invisible to results.  Tests that
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
from repro.parallel import pool as pool_mod
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


def _steal_eval(chunk_tasks):
    return [evaluate_task(task) for task in chunk_tasks]


# ---------------------------------------------------------------------------
# WorkerPool basics
# ---------------------------------------------------------------------------


def test_pool_results_match_inline_and_ship_metrics():
    tasks = _tasks(4)
    inline = [evaluate_task(t) for t in tasks]
    pool = WorkerPool(2)
    try:
        completed, failed, stolen = pool.run(_chunks(tasks, 2))
    finally:
        pool.close()
    assert failed == [] and stolen == []
    assert len(completed) == 2
    parent = os.getpid()
    for chunk_id, (results, metrics) in completed.items():
        assert metrics is not None
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
    completed, failed, stolen = pool.run([((0,), tasks)])
    pool.close()
    assert pids and failed == [] and stolen == [], (pids, failed, stolen)
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
# Work stealing
# ---------------------------------------------------------------------------


def _one_worker_four_chunks(monkeypatch, cores):
    """``(completed, stolen)`` of one such run on a ``cores``-core machine."""
    monkeypatch.setattr(pool_mod, "usable_cores", lambda: cores)
    spec = ScenarioSpec(workload="hadoop", scale="small", duration=0.02)
    tasks = _tasks(4, spec)
    pool = WorkerPool(1)
    try:
        completed, failed, stolen = pool.run(
            _chunks(tasks, 1), steal_eval=_steal_eval
        )
    finally:
        pool.close()
    assert failed == []
    assert len(completed) == 4
    inline = [evaluate_task(t) for t in tasks]
    for chunk_id, (results, _metrics) in completed.items():
        for pos, result in zip(chunk_id, results):
            assert result.fct_digest == inline[pos].fct_digest
    return completed, stolen


def test_parent_steals_queued_chunks_from_one_busy_worker(monkeypatch):
    # One worker on two cores, four chunks of a non-trivial scenario:
    # while the worker grinds chunk 0, the parent has a core to itself
    # and must reclaim queued chunks.
    before = _counter("repro_executor_steals_total")
    _, stolen = _one_worker_four_chunks(monkeypatch, cores=2)
    assert stolen, "parent never stole despite a single busy worker"
    assert _counter("repro_executor_steals_total") - before == len(stolen)


def test_parent_does_not_steal_without_a_spare_core(monkeypatch):
    # The same queue on one core: the busy worker already occupies it,
    # so a steal would only oversubscribe.  The worker completes all four.
    before = _counter("repro_executor_steals_total")
    completed, stolen = _one_worker_four_chunks(monkeypatch, cores=1)
    assert stolen == []
    assert _counter("repro_executor_steals_total") == before
    assert all(metrics is not None for _, metrics in completed.values())


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
    evals_before = _counter("repro_evals_total")
    ex = SweepExecutor(jobs=2)
    # A known 1 s task: no probe, the pool, one task per chunk.
    ex._cost_ema[TINY.fingerprint()] = 1.0
    results = ex.map(tasks)

    assert (tmp_path / "boom").exists(), "crash hook never fired"
    assert ex.last_retried_chunks >= 1
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


@fork_only
def test_pool_respawns_crashed_workers_between_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(
        worker_mod, "_CRASH_HOOK", _crash_once(str(tmp_path / "boom"))
    )
    tasks = _tasks(2)
    pool = WorkerPool(1)
    try:
        first_pids = set(pool.worker_pids())
        completed, failed, _ = pool.run(_chunks(tasks, 2))
        assert completed == {} and [reason for _, reason in failed] == [
            "crash"
        ]
        # Next run heals the crew: new pid, chunk evaluated normally.
        completed, failed, _ = pool.run(_chunks(tasks, 2))
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
        completed, _, _ = pool.run(_chunks(tasks))
        assert all(
            r.recording is None for rs, _ in completed.values() for r in rs
        )
        trace.configure(path, run_id="late")
        recorder.configure()
        try:
            completed, _, _ = pool.run(_chunks(tasks))
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
