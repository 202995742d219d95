"""Core-aware sweep execution: one dispatch policy, caching, retries.

:class:`SweepExecutor` maps a list of :class:`~repro.parallel.tasks.
EvalTask` onto the fabric and returns results **in task order** — the
contract every consumer (grid search, the SA driver, the control
plane's retunes) relies on to stay byte-compatible with serial
execution.  An evaluation is configured by its task alone: the
executor takes only ``jobs`` and an optional cache, and nothing it
decides can change a digest.

Design points:

* **One dispatch policy** — per ``map()`` call the executor runs the
  misses inline when ``jobs == 1``, when one task is pending, or when
  the online per-scenario cost EMA (seeded by evaluating one task
  inline for a never-seen scenario) says a task costs less than
  ``_INLINE_COST_S``; otherwise it dispatches to the persistent
  process pool.  :attr:`SweepExecutor.last_strategy` reports the
  choice.  Evaluations are pure, so the choice is digest-neutral.
  There is no thread band: the DES is pure Python under the GIL, and
  threads never beat both alternatives at any task cost (DESIGN.md
  §13).
* **Persistent process pool** — dispatch goes to the process-wide
  :func:`~repro.parallel.pool.get_shared_pool`, whose workers are
  forked once and serve every later sweep.  Results return over each
  worker's pipe; straggler chunks are work-stolen back into the
  parent.  See :mod:`repro.parallel.pool`.
* **Adaptive chunking** — chunk size targets ``_TARGET_CHUNK_S`` of
  estimated work per chunk, clamped so every worker sees at least two
  chunks (load balance and stealing need slack); with no cost
  estimate the ``ceil(n / (jobs * 4))`` rule applies.
* **Per-chunk retry** — a chunk that dies with its worker or never
  reaches a pool (spawn failure) is re-evaluated *in-process at its
  original granularity*: one ``executor.retry`` event and one
  retried-chunks increment per failed chunk, never one giant lumped
  chunk.  Evaluations are deterministic, so retry results are
  identical to what the worker would have produced.
* **Evaluation cache** — with an :class:`~repro.tuning.eval_cache.
  EvalCache` attached, cacheable tasks (frozen params, engine off) are
  looked up before dispatch and stored after; only misses touch a
  pool.

``jobs`` resolution order: explicit argument, then the ``REPRO_JOBS``
environment variable, then the usable core count.  ``jobs=1`` runs
everything in-process (no pool, no pickling) which is also the
fallback wherever a pool cannot be spawned.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro import env
from repro.parallel.pool import get_shared_pool, usable_cores
from repro.parallel.tasks import EvalResult, EvalTask, evaluate_task
from repro.telemetry import trace
from repro.telemetry.log import get_logger
from repro.telemetry.registry import get_registry
from repro.tuning.eval_cache import EvalCache

_log = get_logger("parallel.executor")

_RETRIED_CHUNKS = get_registry().counter(
    "repro_executor_retried_chunks_total",
    "Chunks re-evaluated in-process after a pool failure",
)
_POOL_TASKS = get_registry().counter(
    "repro_executor_pool_tasks_total", "Tasks dispatched past the cache"
)

#: Cost cutoff (estimated seconds per task): below it, dispatch
#: overhead loses to just evaluating; above, processes.
_INLINE_COST_S = 0.002

#: Adaptive chunking aims for this much estimated work per chunk.
_TARGET_CHUNK_S = 0.2

#: Flight recordings kept per ``map()`` call (best-K by utility).
_KEEP_RECORDINGS = 3


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit > ``REPRO_JOBS`` env > usable cores.

    Every source is clamped to :func:`~repro.parallel.pool.usable_cores`:
    evaluation workers are CPU-bound, so oversubscribing the machine
    only adds context switching.  An effective count of 1 makes
    :meth:`SweepExecutor.map` fall back to serial in-process execution.
    """
    cpus = usable_cores()
    if jobs is not None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        return min(jobs, cpus)
    from_env = env.get("REPRO_JOBS")
    if from_env is not None:
        return max(1, min(from_env, cpus))
    return cpus


class SweepExecutor:
    """Maps evaluation tasks over the parallel fabric, in order."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[EvalCache] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        # Diagnostics from the last map() call.
        self.last_cache_hits = 0
        self.last_pool_tasks = 0
        self.last_retried_chunks = 0
        self.last_stolen_chunks = 0
        self.last_strategy: Optional[str] = None
        # Per-scenario EMA of task wall seconds, feeding the policy.
        self._cost_ema: Dict[str, float] = {}

    # -- public API -----------------------------------------------------

    def map(self, tasks: Sequence[EvalTask]) -> List[EvalResult]:
        """Evaluate every task; results are ordered like ``tasks``.

        Task ``index`` fields are used for aggregation bookkeeping but
        the returned list always matches the input positionally.
        """
        tasks = list(tasks)
        self.last_cache_hits = 0
        self.last_pool_tasks = 0
        self.last_retried_chunks = 0
        self.last_stolen_chunks = 0
        self.last_strategy = None
        if not tasks:
            return []

        results: Dict[int, EvalResult] = {}
        pending: List[int] = []

        # 1. Serve cache hits.
        for pos, task in enumerate(tasks):
            payload = self._cache_get(task)
            if payload is not None:
                results[pos] = EvalResult.from_cache_payload(task, payload)
                self.last_cache_hits += 1
            else:
                pending.append(pos)
        self.last_pool_tasks = len(pending)
        _POOL_TASKS.inc(len(pending))

        # 2. Pick inline or pool (may probe one task inline) and chunking.
        strategy, est_cost = self._resolve_map_strategy(
            tasks, pending, results
        )
        chunk = self._chunk_for(len(pending), est_cost)
        self.last_strategy = strategy

        # 3. Evaluate the misses.
        with trace.span(
            "executor.map",
            {"tasks": len(tasks), "jobs": self.jobs, "strategy": strategy},
        ):
            if trace.active:
                trace.event(
                    "executor.strategy",
                    {
                        "strategy": strategy,
                        "tasks": len(tasks),
                        "jobs": self.jobs,
                        "est_cost_ms": (
                            None if est_cost is None else est_cost * 1e3
                        ),
                        "chunk": chunk,
                    },
                )
            if pending:
                if strategy == "inline":
                    for pos in pending:
                        results[pos] = self._evaluate_with_cache(tasks[pos])
                else:
                    self._run_pool(tasks, pending, results, chunk)

        self._prune_recordings(results)
        return [results[pos] for pos in range(len(tasks))]

    # -- dispatch policy ------------------------------------------------

    def _resolve_map_strategy(
        self,
        tasks: List[EvalTask],
        pending: List[int],
        results: Dict[int, EvalResult],
    ) -> Tuple[str, Optional[float]]:
        """(``"inline"`` or ``"process"``, estimated cost) for this call.

        Reads the wall-time EMA of the dominant scenario; a
        never-measured scenario is probed by evaluating one pending
        task inline (``pending`` shrinks accordingly), which doubles as
        useful work.
        """
        if not pending:
            return "inline", None
        fp = tasks[pending[0]].scenario.fingerprint()
        cost = self._cost_ema.get(fp)
        if self.jobs <= 1 or len(pending) <= 1:
            return "inline", cost
        if cost is None:
            probe = pending.pop(0)
            results[probe] = self._evaluate_with_cache(tasks[probe])
            cost = self._cost_ema[fp]
        if not pending or cost < _INLINE_COST_S:
            return "inline", cost
        return "process", cost

    def _chunk_for(self, n_pending: int, est_cost: Optional[float]) -> int:
        if n_pending <= 0:
            return 1
        if est_cost:
            by_cost = max(1, round(_TARGET_CHUNK_S / est_cost))
            by_balance = max(1, math.ceil(n_pending / (self.jobs * 2)))
            return max(1, min(by_cost, by_balance))
        return max(1, math.ceil(n_pending / (self.jobs * 4)))

    def _note_cost(self, fp: str, wall: float) -> None:
        previous = self._cost_ema.get(fp)
        self._cost_ema[fp] = (
            wall if previous is None else 0.5 * previous + 0.5 * wall
        )

    # -- shared plumbing ------------------------------------------------

    def _prune_recordings(self, results: Dict[int, EvalResult]) -> None:
        """Keep flight recordings only for the best-K candidates.

        Every pool worker records while the parent's telemetry session
        has the recorder on, and recordings ride back inside each
        ``EvalResult``; retaining all of them would defeat the
        recorder's bounded-memory goal for large sweeps.  Completed runs outrank aborted ones, higher
        utility wins, and the task index breaks ties deterministically.
        """
        carriers = [r for r in results.values() if r.recording is not None]
        if len(carriers) <= _KEEP_RECORDINGS:
            return
        carriers.sort(key=lambda r: (r.aborted, -r.utility, r.index))
        for result in carriers[_KEEP_RECORDINGS:]:
            result.recording = None

    def _cache_get(self, task: EvalTask) -> Optional[dict]:
        if self.cache is None or not task.cacheable:
            return None
        return self.cache.get(
            task.scenario.fingerprint(), task.seed, task.params
        )

    def _cache_put(self, task: EvalTask, result: EvalResult) -> None:
        if self.cache is None or not task.cacheable:
            return
        if result.aborted:
            # An aborted run's utility is a bound, not a measurement;
            # caching it would poison later full-fidelity lookups.
            return
        self.cache.put(
            task.scenario.fingerprint(),
            task.seed,
            task.params,
            result.cache_payload(),
        )

    def _evaluate_inline(self, task: EvalTask) -> EvalResult:
        """In-parent evaluation; feeds the cost EMA, no cache put."""
        result = evaluate_task(task)
        self._note_cost(task.scenario.fingerprint(), result.wall_time)
        return result

    def _evaluate_with_cache(self, task: EvalTask) -> EvalResult:
        result = self._evaluate_inline(task)
        self._cache_put(task, result)
        return result

    # -- process dispatch -----------------------------------------------

    def _steal_chunk(self, chunk_tasks: List[EvalTask]) -> List[EvalResult]:
        """In-parent evaluation of a work-stolen straggler chunk."""
        return [self._evaluate_inline(task) for task in chunk_tasks]

    def _run_pool(
        self,
        tasks: List[EvalTask],
        pending: List[int],
        results: Dict[int, EvalResult],
        chunk: int,
    ) -> None:
        chunks = [
            tuple(pending[i : i + chunk])
            for i in range(0, len(pending), chunk)
        ]
        chunk_items = [(c, [tasks[pos] for pos in c]) for c in chunks]
        try:
            pool = get_shared_pool(self.jobs)
            completed, failed, stolen = pool.run(
                chunk_items,
                max_workers=self.jobs,
                steal_eval=self._steal_chunk,
            )
        except (OSError, RuntimeError, ValueError):
            # The pool never came up (fork failure, sandboxing): every
            # chunk retries below, at its original granularity.
            completed, stolen = {}, []
            failed = [(c, "spawn") for c in chunks]
        self.last_stolen_chunks = len(stolen)
        for chunk_id, (chunk_results, worker_metrics) in completed.items():
            if worker_metrics is not None:
                # Fold the worker's metric delta into this process.
                get_registry().merge_snapshot(worker_metrics)
            for pos, result in zip(chunk_id, chunk_results):
                results[pos] = result
                self._cache_put(tasks[pos], result)
                self._note_cost(
                    tasks[pos].scenario.fingerprint(), result.wall_time
                )

        # Retry failures deterministically in-process, chunk by chunk.
        for chunk_id, reason in failed:
            self.last_retried_chunks += 1
            _RETRIED_CHUNKS.inc()
            _log.warning(
                "chunk %s lost to a pool %s; re-evaluating in-process",
                list(chunk_id),
                reason,
            )
            if trace.active:
                trace.event("executor.retry", {"positions": list(chunk_id)})
            for pos in chunk_id:
                if pos not in results:
                    results[pos] = self._evaluate_with_cache(tasks[pos])
