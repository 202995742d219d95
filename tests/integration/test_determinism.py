"""End-to-end determinism: same scenario + seed => byte-identical runs.

The whole parallel story rests on evaluations being pure functions of
``(scenario, seed, params/scheme)``: the executor may run them in any
process, serve them from cache, or retry them after a crash, and the
caller must not be able to tell.  These tests pin that down with
SHA-256 digests over the raw FCT record and interval-stat streams.
"""

from __future__ import annotations

from repro.parallel import EvalTask, ScenarioSpec, SweepExecutor, evaluate_task
from repro.parallel.tasks import fct_digest, interval_digest
from repro.tuning.parameters import default_params

SPEC = ScenarioSpec(workload="hadoop", scale="small", duration=0.01)


def test_two_runs_byte_identical():
    task = EvalTask(scenario=SPEC, seed=SPEC.seed, params=default_params())
    first = evaluate_task(task)
    second = evaluate_task(task)
    # Digests equal AND recomputed from the records themselves.
    assert first.fct_digest == second.fct_digest
    assert first.interval_digest == second.interval_digest
    assert first.fct_digest == fct_digest(first.records)
    assert first.records, "scenario must complete flows to be meaningful"
    assert first.utilities == second.utilities
    assert first.dispatches == second.dispatches
    assert first.events == second.events


def test_scheme_runs_byte_identical():
    task = EvalTask(scenario=SPEC, seed=SPEC.seed, scheme="paraleon")
    first = evaluate_task(task)
    second = evaluate_task(task)
    assert first.fct_digest == second.fct_digest
    assert first.interval_digest == second.interval_digest


def test_different_seed_changes_the_run():
    base = EvalTask(scenario=SPEC, seed=SPEC.seed, params=default_params())
    other = EvalTask(scenario=SPEC, seed=SPEC.seed + 1, params=default_params())
    assert evaluate_task(base).interval_digest != (
        evaluate_task(other).interval_digest
    )


def test_pool_worker_matches_in_process(cores):
    """A real subprocess evaluation equals the in-process one."""
    import os

    cores(8)

    tasks = [
        EvalTask(scenario=SPEC, seed=SPEC.seed, params=default_params(), index=0),
        EvalTask(
            scenario=SPEC,
            seed=SPEC.seed,
            params=default_params().copy(p_max=0.4),
            index=1,
        ),
    ]
    in_process = SweepExecutor(jobs=1).map(tasks)
    pooled = SweepExecutor(jobs=2).map(tasks)
    assert [r.fct_digest for r in in_process] == [
        r.fct_digest for r in pooled
    ]
    assert [r.interval_digest for r in in_process] == [
        r.interval_digest for r in pooled
    ]
    assert [r.utilities for r in in_process] == [r.utilities for r in pooled]
    # And the pooled results really did cross a process boundary.
    assert any(r.worker_pid != os.getpid() for r in pooled)


def test_digest_helpers_are_order_sensitive():
    task = EvalTask(scenario=SPEC, seed=SPEC.seed, params=default_params())
    result = evaluate_task(task)
    assert len(result.records) >= 2
    reordered = list(reversed(result.records))
    assert fct_digest(result.records) != fct_digest(reordered)
    assert interval_digest([]) == interval_digest([])
