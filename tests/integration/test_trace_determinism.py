"""Tracing must observe, never perturb: digests identical on vs off.

Also exercises the fork-merge half of the telemetry contract through a
real ``SweepExecutor`` pool: worker registries ride back with chunk
results and fold into the parent's process-global registry, and each
worker traces under its own pid with span ids no other process uses.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.parallel import EvalTask, ScenarioSpec, SweepExecutor
from repro.parallel.tasks import evaluate_task
from repro.telemetry import trace
from repro.telemetry.registry import get_registry
from repro.telemetry.schema import validate_file
from repro.telemetry.summary import TraceSummary
from repro.tuning import default_params


@pytest.fixture(autouse=True)
def _clean_trace():
    trace.disable()
    yield
    trace.disable()


def _spec() -> ScenarioSpec:
    return ScenarioSpec(workload="hadoop", scale="small", duration=0.02,
                        seed=3, workload_seed=7)


def test_digests_identical_with_tracing_on_vs_off(tmp_path):
    task = EvalTask(scenario=_spec(), seed=3, params=default_params())

    baseline = evaluate_task(task)

    trace.configure(tmp_path / "on.jsonl", run_id="det")
    traced = evaluate_task(task)
    trace.disable()

    again = evaluate_task(task)

    assert traced.fct_digest == baseline.fct_digest
    assert traced.interval_digest == baseline.interval_digest
    assert traced.utilities == baseline.utilities
    assert traced.events == baseline.events
    assert again.fct_digest == baseline.fct_digest

    # The traced run actually produced schema-valid records.
    count, problems = validate_file(tmp_path / "on.jsonl")
    assert problems == []
    assert count > 0


def test_scheme_run_digests_unaffected_by_tracing(tmp_path):
    task = EvalTask(scenario=_spec(), seed=3, scheme="paraleon")
    baseline = evaluate_task(task)
    trace.configure(tmp_path / "scheme.jsonl", run_id="det2")
    traced = evaluate_task(task)
    trace.disable()
    assert traced.fct_digest == baseline.fct_digest
    assert traced.interval_digest == baseline.interval_digest
    # A paraleon run must record SA steps with utility terms.
    count, problems = validate_file(tmp_path / "scheme.jsonl")
    assert problems == []
    with open(tmp_path / "scheme.jsonl") as fh:
        names = [line.split('"name":"', 1)[1].split('"', 1)[0]
                 for line in fh if '"name":"' in line]
    assert "controller.kl" in names
    assert "engine.interval" in names


def test_fork_merge_through_executor_pool(tmp_path, cores):
    cores(8)
    spec = _spec()
    tasks = [
        EvalTask(scenario=spec, seed=seed, index=i, params=default_params())
        for i, seed in enumerate([3, 4, 5, 6])
    ]

    registry = get_registry()
    registry.reset()
    trace.configure(tmp_path / "pool.jsonl", run_id="pool")
    executor = SweepExecutor(jobs=2, cache=None)
    # A known 0.1 s task: no probe, so every task runs in a worker.
    executor._cost_ema[spec.fingerprint()] = 0.1
    results = executor.map(tasks)
    trace.disable()

    assert len(results) == 4
    assert all(r is not None for r in results)

    snap = registry.snapshot()
    # Worker-side counters merged into the parent exactly once.
    assert snap["counters"]["repro_evals_total"] == 4.0
    # Pool bookkeeping counted on the parent side.
    assert snap["counters"]["repro_executor_pool_tasks_total"] >= 4.0

    # Workers joined the parent's trace file through the session on
    # their chunk messages (a schema-valid file also has no repeated
    # span id).
    path = tmp_path / "pool.jsonl"
    count, problems = validate_file(path)
    assert problems == []
    assert count > 0

    # ... each under its own pid, with span ids no other process used.
    records = [json.loads(line) for line in path.read_text().splitlines()]
    worker_pids = {r.worker_pid for r in results} - {os.getpid()}
    assert worker_pids
    assert worker_pids <= {r["pid"] for r in records}
    span_ids = [r["span"] for r in records if r["kind"] == "span"]
    assert len(span_ids) == len(set(span_ids))
    summary = TraceSummary.from_file(path)
    assert summary.pids >= 2
    # eval.task has no child spans: all of its time is self time.
    task_spans = summary.spans["eval.task"]
    assert task_spans.count == 4
    assert task_spans.self_time == pytest.approx(task_spans.total)

    # Pool results are deterministic per seed regardless of worker pid.
    direct = evaluate_task(tasks[0])
    assert results[0].fct_digest == direct.fct_digest
    assert results[0].interval_digest == direct.interval_digest
