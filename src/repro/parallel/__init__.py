"""Parallel evaluation fabric: process-pool sweeps over independent runs.

Every paper artifact reduces to many independent packet-level
simulations — parameter grids (Fig. 5/6), scheme sweeps (Fig. 7-11),
SA ablations (Fig. 12).  This package fans them out:

* :class:`~repro.parallel.tasks.ScenarioSpec` / ``EvalTask`` /
  ``EvalResult`` — the picklable task protocol.
* :class:`~repro.parallel.executor.SweepExecutor` — ordered,
  deterministic mapping onto a persistent process pool, with chunked
  dispatch, timeout/crash retry and eval-cache integration.
* :func:`~repro.parallel.sa.batched_anneal` — K candidates per SA
  temperature step evaluated concurrently.
* :mod:`~repro.parallel.sweeps` — the sweep drivers
  (:func:`offline_grid_search_parallel`, :func:`run_parameter_sweep`,
  :func:`run_scheme_sweep`).
"""

from repro.parallel.executor import (
    SweepExecutor,
    resolve_jobs,
    resolve_strategy,
)
from repro.parallel.pool import (
    WorkerPool,
    close_shared_pool,
    get_shared_pool,
)
from repro.parallel.sa import BatchedAnnealResult, batched_anneal
from repro.parallel.sweeps import (
    offline_grid_search_parallel,
    run_parameter_sweep,
    run_scheme_sweep,
)
from repro.parallel.tasks import (
    EvalResult,
    EvalTask,
    ScenarioSpec,
    derive_task_seed,
    evaluate_task,
    make_abort_check,
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
    "derive_task_seed",
    "evaluate_task",
    "get_shared_pool",
    "make_abort_check",
    "offline_grid_search_parallel",
    "resolve_jobs",
    "resolve_strategy",
    "run_parameter_sweep",
    "run_scheme_sweep",
    "scheduled_interval_count",
]
