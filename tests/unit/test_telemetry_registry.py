"""Metrics registry: counters, snapshot/reset, fork-merge, the kept set."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.telemetry.registry import Counter, MetricsRegistry, get_registry

#: Every counter something reads: the perf bench (``sketch.packets``,
#: ``tuning.sa_*``, ``parallel.*``) and the tier-1 tests (evaluations
#: merged from workers, worker crashes, sketch round bound).
KEPT_COUNTERS = {
    "repro_sketch_batch_packets_total",
    "repro_sketch_batch_rounds_total",
    "repro_sa_steps_total",
    "repro_sa_accepts_total",
    "repro_evals_total",
    "repro_executor_pool_tasks_total",
    "repro_executor_retried_chunks_total",
    "repro_executor_worker_crashes_total",
}

#: Counters deleted from the program that the perf bench still reads;
#: a missing counter reads 0 there, which is what each of these counts.
DELETED_BUT_READ_BY_BENCH = {
    # Work stealing is gone, so ``parallel.stolen_chunks`` is 0.
    "repro_executor_steals_total",
}

_BODIES = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "bodies.py"


def test_counter_increments_and_rejects_decrease():
    c = Counter("x_total")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_registry_returns_same_counter():
    reg = MetricsRegistry()
    assert reg.counter("a_total") is reg.counter("a_total")


# ---------------------------------------------------------------------------
# Snapshot / merge (the fork protocol)
# ---------------------------------------------------------------------------


def _worker_like_snapshot() -> dict:
    child = MetricsRegistry()
    child.counter("evals_total").inc(3)
    child.counter("crashes_total")
    return child.snapshot()


def test_merge_snapshot_adds_counters_and_histograms_maxes_gauges():
    # The registry holds counters only: merging adds each child counter in.
    parent = MetricsRegistry()
    parent.counter("evals_total").inc(1)

    parent.merge_snapshot(_worker_like_snapshot())

    assert parent.snapshot() == {
        "counters": {"evals_total": 4.0, "crashes_total": 0.0}
    }

    # Merging into an empty parent creates the counters.
    fresh = MetricsRegistry()
    fresh.merge_snapshot(_worker_like_snapshot())
    assert fresh.counter("evals_total").value == 3.0


def test_merge_snapshot_rejects_bound_mismatch_and_tolerates_empty():
    parent = MetricsRegistry()
    parent.counter("evals_total").inc(4)

    # A child snapshot that would make a counter go down is rejected.
    with pytest.raises(ValueError):
        parent.merge_snapshot({"counters": {"evals_total": -1.0}})

    # A worker that shipped nothing merges as a no-op.
    parent.merge_snapshot(None)
    parent.merge_snapshot({})
    assert parent.counter("evals_total").value == 4.0


def test_snapshot_reset_returns_delta_exactly_once():
    reg = MetricsRegistry()
    reg.counter("c_total").inc(5)
    first = reg.snapshot(reset=True)
    assert first["counters"]["c_total"] == 5.0
    second = reg.snapshot()
    assert second["counters"]["c_total"] == 0.0
    # Counter objects survive the reset (call sites keep references).
    reg.counter("c_total").inc()
    assert reg.snapshot()["counters"]["c_total"] == 1.0


def test_snapshot_is_json_safe():
    reg = MetricsRegistry()
    reg.counter("c_total").inc()
    round_tripped = json.loads(json.dumps(reg.snapshot()))
    reg2 = MetricsRegistry()
    reg2.merge_snapshot(round_tripped)
    assert reg2.counter("c_total").value == 1.0


def test_global_registry_has_instrumentation_metrics():
    # Importing the instrumented modules registers every counter.
    import repro.parallel.executor  # noqa: F401
    import repro.parallel.pool  # noqa: F401
    import repro.parallel.tasks  # noqa: F401
    import repro.sketch.elastic  # noqa: F401
    import repro.tuning.annealing  # noqa: F401

    snap = get_registry().snapshot()
    assert set(snap) == {"counters"}
    registered = set(snap["counters"])

    # The perf bench reads counters by name and a missing one reads 0:
    # every name it uses must be registered, unless its counter was
    # deleted on purpose.
    read_by_bench = set(re.findall(r'"(repro_\w+_total)"', _BODIES.read_text()))
    assert read_by_bench
    live = read_by_bench - DELETED_BUT_READ_BY_BENCH
    assert live <= registered, live - registered
    assert not DELETED_BUT_READ_BY_BENCH & registered

    assert registered == KEPT_COUNTERS
