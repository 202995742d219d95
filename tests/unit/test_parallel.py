"""Unit tests for the parallel evaluation fabric.

The heavyweight guarantee — pool results byte-identical to serial —
is covered per-commit here with a tiny scenario; the benchmark suite
re-checks it at figure scale.
"""

from __future__ import annotations

import os

import pytest

from repro.parallel import (
    EvalTask,
    ScenarioSpec,
    SweepExecutor,
    batched_anneal,
    evaluate_task,
    resolve_jobs,
)
from repro.parallel.tasks import build_scenario
from repro.telemetry.registry import get_registry
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.eval_cache import EvalCache
from repro.tuning.parameters import default_params, default_space

TINY = ScenarioSpec(workload="hadoop", scale="small", duration=0.004)


def _counter(name):
    return get_registry().snapshot()["counters"].get(name, 0.0)


def _tasks(n=3, spec=TINY):
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


# ---------------------------------------------------------------------------
# Task protocol
# ---------------------------------------------------------------------------


def test_task_requires_exactly_one_of_params_scheme():
    with pytest.raises(ValueError):
        EvalTask(scenario=TINY, seed=1)
    with pytest.raises(ValueError):
        EvalTask(
            scenario=TINY, seed=1, params=default_params(), scheme="default"
        )
    assert EvalTask(scenario=TINY, seed=1, params=default_params()).cacheable
    assert not EvalTask(scenario=TINY, seed=1, scheme="default").cacheable


def test_fingerprint_tracks_fields():
    assert TINY.fingerprint() == TINY.fingerprint()
    other = ScenarioSpec(workload="hadoop", scale="small", duration=0.005)
    assert TINY.fingerprint() != other.fingerprint()


def test_evaluate_task_is_deterministic():
    task = _tasks(1)[0]
    a = evaluate_task(task)
    b = evaluate_task(task)
    assert a.fct_digest == b.fct_digest
    assert a.interval_digest == b.interval_digest
    assert a.utilities == b.utilities


def test_build_scenario_rejects_unknown_workload():
    with pytest.raises(ValueError):
        build_scenario(
            ScenarioSpec(workload="carrier-pigeon"), seed=1
        )


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def test_resolve_jobs_priority(monkeypatch, cores):
    cores(8)
    assert resolve_jobs(3) == 3
    with pytest.raises(ValueError):
        resolve_jobs(0)
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    monkeypatch.setenv("REPRO_JOBS", "garbage")
    with pytest.raises(ValueError, match="REPRO_JOBS.*'garbage'"):
        resolve_jobs()  # no silent fall-through to the cpu count


def test_resolve_jobs_clamps_to_cpu_count(monkeypatch, cores):
    cores(4)
    # Oversubscription is clamped from every source.
    assert resolve_jobs(64) == 4
    monkeypatch.setenv("REPRO_JOBS", "64")
    assert resolve_jobs() == 4
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 4
    # No affinity mask (macOS) and cpu_count() None (exotic platforms):
    # fall back to serial.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_jobs() == 1
    assert resolve_jobs(3) == 1


def test_map_empty_is_empty():
    assert SweepExecutor(jobs=1).map([]) == []


def test_serial_map_preserves_order_and_indices():
    tasks = _tasks(3)
    results = SweepExecutor(jobs=1).map(tasks)
    assert [r.index for r in results] == [0, 1, 2]
    assert all(r.events > 0 for r in results)


def test_pool_map_identical_to_serial(cores):
    cores(8)
    tasks = _tasks(3)
    serial = SweepExecutor(jobs=1).map(tasks)
    pooled = SweepExecutor(jobs=2).map(tasks)
    assert [r.fct_digest for r in serial] == [r.fct_digest for r in pooled]
    assert [r.interval_digest for r in serial] == [
        r.interval_digest for r in pooled
    ]
    assert [r.utilities for r in serial] == [r.utilities for r in pooled]


def test_cache_serves_hits_and_fills_on_miss():
    tasks = _tasks(2)
    cache = EvalCache()
    ex = SweepExecutor(jobs=1, cache=cache)
    cold = ex.map(tasks)
    assert not any(r.from_cache for r in cold)
    assert len(cache) == 2
    dispatched_before = _counter("repro_executor_pool_tasks_total")
    warm = ex.map(tasks)
    assert _counter("repro_executor_pool_tasks_total") == dispatched_before
    assert [r.utility for r in warm] == [r.utility for r in cold]
    assert [r.fct_digest for r in warm] == [r.fct_digest for r in cold]
    assert all(r.from_cache for r in warm)


def test_scheme_tasks_bypass_cache():
    task = EvalTask(scenario=TINY, seed=TINY.seed, scheme="default")
    cache = EvalCache()
    ex = SweepExecutor(jobs=1, cache=cache)
    ex.map([task])
    (again,) = ex.map([task])
    assert len(cache) == 0
    assert not again.from_cache


def _broken_pool(*args, **kwargs):
    raise OSError("no forks today")


def test_failed_chunks_retry_at_original_granularity(monkeypatch, tmp_path, cores):
    """A total pool failure retries chunk by chunk, not in one lump.

    Regression test for the old catastrophic-failure path, which
    collected every lost position into a single giant chunk — one
    retry counter tick and one ``executor.retry`` event no matter how
    many chunks actually failed.
    """
    import repro.parallel.executor as executor_mod
    from repro.telemetry import trace

    cores(8)
    tasks = _tasks(4)
    expected = SweepExecutor(jobs=1).map(tasks)

    monkeypatch.setattr(executor_mod, "get_shared_pool", _broken_pool)
    trace_path = tmp_path / "retry.jsonl"
    retried_before = _counter("repro_executor_retried_chunks_total")
    trace.configure(str(trace_path))
    try:
        ex = SweepExecutor(jobs=2)
        # A known 1 s task: no probe, the pool, one task per chunk.
        ex._cost_ema[TINY.fingerprint()] = 1.0
        results = ex.map(tasks)
    finally:
        trace.disable()
    # One retry per original chunk: 4 chunks of one task -> 4.
    retried = _counter("repro_executor_retried_chunks_total") - retried_before
    assert retried == 4
    assert [r.fct_digest for r in results] == [
        r.fct_digest for r in expected
    ]

    import json
    retries = [
        json.loads(line)
        for line in trace_path.read_text().splitlines()
        if json.loads(line).get("name") == "executor.retry"
    ]
    assert len(retries) == 4
    assert sorted(r["attrs"]["positions"] for r in retries) == [
        [0], [1], [2], [3]
    ]


def test_strategies_are_digest_identical(monkeypatch, cores):
    import repro.parallel.executor as executor_mod

    cores(8)
    tasks = _tasks(3)
    inline = SweepExecutor(jobs=1).map(tasks)
    # Every measured cost clears a zero cut-over: the pool takes the
    # tasks left after the probe.
    monkeypatch.setattr(executor_mod, "_INLINE_COST_S", 0)
    ex = SweepExecutor(jobs=2)
    got = ex.map(tasks)
    assert [r.fct_digest for r in got] == [r.fct_digest for r in inline]
    assert [r.interval_digest for r in got] == [
        r.interval_digest for r in inline
    ]
    assert ex.last_strategy == "process"


def test_auto_strategy_picks_by_cost(cores):
    cores(8)
    ex = SweepExecutor(jobs=2)
    fp = TINY.fingerprint()
    tasks = _tasks(3)
    pending = [0, 1, 2]
    # One cut-over, at _INLINE_COST_S = 2 ms.
    ex._cost_ema[fp] = 0.0019
    assert ex._resolve_map_strategy(tasks, pending, {})[0] == "inline"
    ex._cost_ema[fp] = 0.002
    assert ex._resolve_map_strategy(tasks, pending, {})[0] == "process"
    ex._cost_ema[fp] = 0.5
    assert ex._resolve_map_strategy(tasks, pending, {})[0] == "process"
    # A single pending task is never worth dispatch overhead.
    assert ex._resolve_map_strategy(tasks, [0], {})[0] == "inline"


def test_auto_probe_seeds_cost_ema(cores):
    cores(8)
    ex = SweepExecutor(jobs=2)
    assert ex._cost_ema == {}
    tasks = _tasks(3)
    pending = [0, 1, 2]
    results = {}
    strategy, cost = ex._resolve_map_strategy(tasks, pending, results)
    # The probe evaluated one task inline and measured it.
    assert list(results) == [0]
    assert pending == [1, 2]
    assert cost == pytest.approx(ex._cost_ema[TINY.fingerprint()])
    assert strategy in ("inline", "process")


def test_adaptive_chunk_targets_wall_time(monkeypatch, cores):
    import repro.parallel.executor as executor_mod

    cores(8)
    ex = SweepExecutor(jobs=4)
    # Cheap tasks coalesce, but never beyond 2 chunks per worker.
    assert ex._chunk_for(100, 0.001) <= max(1, 100 // (ex.jobs * 2) + 1)
    # Expensive tasks stay fine-grained for load balance.
    assert ex._chunk_for(100, 1.0) == 1
    # No estimate: the legacy jobs*4 rule.
    assert ex._chunk_for(32, None) == max(1, -(-32 // (ex.jobs * 4)))
    # The target is work per chunk: 0.2 s of 0.1 s tasks is two of
    # them, and a bigger target coalesces more.
    assert ex._chunk_for(100, 0.1) == 2
    monkeypatch.setattr(executor_mod, "_TARGET_CHUNK_S", 0.7)
    assert ex._chunk_for(100, 0.1) == 7


# ---------------------------------------------------------------------------
# Batched SA
# ---------------------------------------------------------------------------


def _fast_annealer():
    # Two temperature levels x two iterations: four evaluations total.
    schedule = AnnealingSchedule(
        initial_temp=90.0,
        final_temp=70.0,
        cooling_rate=0.85,
        iterations_per_temp=2,
    )
    import random

    return ImprovedAnnealer(default_space(), schedule, rng=random.Random(3))


def test_batched_anneal_runs_to_schedule_end():
    result = batched_anneal(
        TINY,
        _fast_annealer(),
        default_params(),
        batch_size=2,
        executor=SweepExecutor(jobs=1, cache=EvalCache()),
    )
    assert result.batches == 2
    assert result.evaluations == 5  # 1 seed + 2 batches x 2
    assert len(result.utility_trace) == 4
    assert 0.0 <= result.best_utility <= 1.0
    result.best_params.validate()


def test_batched_anneal_matches_serial_annealer():
    """batch_size=1 through the executor == hand-driven serial SA."""
    serial = _fast_annealer()
    seed_result = evaluate_task(
        EvalTask(scenario=TINY, seed=TINY.seed, params=default_params())
    )
    serial.begin(default_params(), seed_result.utility)
    while serial.running:
        candidate = serial.propose()
        util = evaluate_task(
            EvalTask(scenario=TINY, seed=TINY.seed, params=candidate)
        ).utility
        serial.feedback(util)

    batched = batched_anneal(
        TINY,
        _fast_annealer(),
        default_params(),
        batch_size=1,
        executor=SweepExecutor(jobs=1),
    )
    assert batched.best_utility == serial.state.best_util
    assert (
        batched.best_params.as_dict() == serial.state.best_solution.as_dict()
    )
    assert batched.utility_trace == serial.utility_trace


def test_batched_anneal_hits_cache_on_revisit():
    """A second identical search must be served from cache."""
    cache = EvalCache()
    executor = SweepExecutor(jobs=1, cache=cache)
    first = batched_anneal(
        TINY, _fast_annealer(), default_params(), batch_size=2,
        executor=executor,
    )
    again = batched_anneal(
        TINY, _fast_annealer(), default_params(), batch_size=2,
        executor=executor,
    )
    assert again.cache_hits > 0
    assert cache.hit_rate > 0
    assert again.best_utility == first.best_utility
    assert again.utility_trace == first.utility_trace
