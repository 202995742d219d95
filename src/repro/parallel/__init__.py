"""Parallel evaluation fabric: process-pool sweeps over independent runs.

Every paper artifact reduces to many independent packet-level
simulations — parameter grids (Fig. 5/6), scheme sweeps (Fig. 7-11),
SA ablations (Fig. 12).  This package fans them out:

* :class:`~repro.parallel.tasks.ScenarioSpec` / ``EvalTask`` /
  ``EvalResult`` — the picklable task protocol.
* :class:`~repro.parallel.executor.SweepExecutor` — ordered,
  deterministic mapping onto a persistent process pool (or inline,
  by one measured cost rule), with chunked dispatch, crash retry and
  eval-cache integration.  It takes only ``jobs`` and a cache: an
  evaluation is configured by its task, never by the environment.
* :mod:`~repro.parallel.sa` — the one SA driver:
  :func:`~repro.parallel.sa.step_loops` evaluates K candidates per
  step for any number of walks in one map;
  :func:`~repro.parallel.sa.batched_anneal` runs one walk to the end.
* :mod:`~repro.parallel.sweeps` — the grid-sweep driver
  (:func:`offline_grid_search_parallel`).
"""

from repro.parallel.executor import SweepExecutor, resolve_jobs
from repro.parallel.pool import (
    WorkerPool,
    close_shared_pool,
    get_shared_pool,
)
from repro.parallel.sa import BatchedAnnealResult, batched_anneal
from repro.parallel.sweeps import offline_grid_search_parallel
from repro.parallel.tasks import (
    EvalResult,
    EvalTask,
    ScenarioSpec,
    evaluate_task,
    scheduled_interval_count,
)

__all__ = [
    "BatchedAnnealResult",
    "EvalResult",
    "EvalTask",
    "ScenarioSpec",
    "SweepExecutor",
    "WorkerPool",
    "batched_anneal",
    "close_shared_pool",
    "evaluate_task",
    "get_shared_pool",
    "offline_grid_search_parallel",
    "resolve_jobs",
    "scheduled_interval_count",
]
