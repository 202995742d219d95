"""Persistent, core-aware worker pool.

The old executor built a fresh ``ProcessPoolExecutor`` per ``map()``
call, so every sweep paid interpreter spawn and module import before
the first useful event — on short sweeps that overhead ate the entire
parallel speedup (BENCH recorded ``sweep.speedup = 1.03``).
:class:`WorkerPool` keeps its workers alive across calls:

* **Persistent workers** — forked once (:func:`repro.parallel.worker.
  _worker_main`), each initializes once and serves many chunks over a
  private duplex pipe, which carries both the tasks out and the
  results back.  Dead workers are respawned lazily at the next
  :meth:`WorkerPool.run`.
* **Work stealing** — dispatch is parent-driven, one chunk in flight
  per worker.  While all workers are busy, chunks are still queued
  *and the parent has a core to run on* (fewer busy workers than
  :func:`usable_cores`), the parent reclaims chunks from the *tail* of
  the queue and runs them in-process (``steal_eval``), so one slow
  candidate cannot serialize the batch behind it.  With every core
  already running a worker a steal only oversubscribes — three
  CPU-bound processes on two cores stretched each evaluation from ~50
  to 80–100 ms — so the parent stays out.  Evaluations are
  deterministic, so a stolen chunk's results are identical to what the
  worker would have produced.
* **One telemetry path** — every ``("chunk", …)`` message carries the
  parent's :class:`~repro.telemetry.Session` (trace path and run id,
  recorder on/off, log level), captured once per :meth:`WorkerPool.run`;
  a worker re-applies it when it changed, so a trace configured after
  the crew spawned reaches the same workers.  Nothing that shapes a
  result travels this way: what an evaluation computes rides on its
  task.
* **Crash detection** — a worker that dies mid-chunk shows up as pipe
  EOF, and a worker whose parent dies exits on the parent-process
  sentinel; there is no wall-clock timeout.

The pool is policy-free plumbing: chunking, retry and the
process/inline choice live in
:class:`repro.parallel.executor.SweepExecutor`.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.parallel.worker import _worker_main
from repro.telemetry import trace
from repro.telemetry.log import get_logger
from repro.telemetry.registry import get_registry

_log = get_logger("parallel.pool")

_STEALS = get_registry().counter(
    "repro_executor_steals_total",
    "Straggler chunks reclaimed and evaluated in the parent",
)
_WORKER_CRASHES = get_registry().counter(
    "repro_executor_worker_crashes_total",
    "Persistent pool workers that died mid-chunk",
)

#: Seconds between result polls; doubles as the straggler threshold —
#: a parent that has polled once without progress starts stealing.
_POLL_S = 0.05

#: Seconds to wait for a worker to exit cleanly before terminating it.
_JOIN_S = 1.0


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask, else the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker:
    """Parent-side handle for one pool process."""

    __slots__ = ("wid", "process", "conn", "chunk", "dead")

    def __init__(self, wid, process, conn):
        self.wid = wid
        self.process = process
        self.conn = conn
        self.chunk = None  # (chunk_id, tasks) in flight
        self.dead = False  # pipe broke; process may not be reaped yet

    @property
    def alive(self) -> bool:
        # ``dead`` covers the window between pipe EOF and the child
        # becoming reapable: is_alive() still says True there, and
        # trusting it would re-dispatch to a corpse.
        return (
            not self.dead
            and self.process is not None
            and self.process.is_alive()
        )


class WorkerPool:
    """A fixed crew of persistent evaluation workers.

    ``run()`` may be called any number of times; workers survive
    between calls.  ``close()`` tears the crew down.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.closed = False
        self._ctx = multiprocessing.get_context()
        self._workers: List[_Worker] = [
            self._spawn(wid) for wid in range(jobs)
        ]

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, wid: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-eval-{wid}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(wid, process, parent_conn)

    def _stop_worker(self, worker: _Worker) -> None:
        if worker.process is not None and worker.process.is_alive():
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                _log.debug("worker %d pipe already closed", worker.wid)
            worker.process.join(_JOIN_S)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(_JOIN_S)
        try:
            worker.conn.close()
        except OSError:
            _log.debug("worker %d conn close raced", worker.wid)

    def refresh(self) -> None:
        """Respawn dead workers.

        Called at the top of every :meth:`run`, so a crash between
        sweeps is healed before dispatch.
        """
        for i, worker in enumerate(self._workers):
            if not worker.alive:
                self._stop_worker(worker)  # reap + close stale conn
                self._workers[i] = self._spawn(worker.wid)

    def worker_pids(self) -> List[int]:
        """PIDs of live workers (diagnostics and tests)."""
        return [w.process.pid for w in self._workers if w.alive]

    def close(self) -> None:
        """Stop every worker."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            self._stop_worker(worker)
        self._workers = []

    # -- dispatch -------------------------------------------------------

    def run(
        self,
        chunks: Sequence[Tuple[Any, Sequence]],
        max_workers: Optional[int] = None,
        steal_eval: Optional[Callable[[list], list]] = None,
    ):
        """Dispatch ``chunks`` — ``(chunk_id, tasks)`` pairs — and collect.

        Returns ``(completed, failed, stolen)``:

        * ``completed`` — ``{chunk_id: (results, metrics_snapshot)}``;
          the snapshot is ``None`` for stolen chunks (their metrics
          landed directly in the parent registry).
        * ``failed`` — ``[(chunk_id, reason)]`` with reason ``"crash"``
          or ``"spawn"``; the caller retries these.
        * ``stolen`` — chunk_ids the parent reclaimed and evaluated via
          ``steal_eval``.

        ``chunk_id`` is opaque to the pool but must be hashable; the
        executor passes the tuple of task positions, which is also what
        the ``executor.steal`` telemetry event reports.
        """
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        self.refresh()
        session = telemetry.session()
        limit = (
            self.jobs
            if max_workers is None
            else max(1, min(max_workers, self.jobs))
        )
        idle = [w for w in self._workers if w.alive][:limit]
        pending = deque(
            (chunk_id, list(chunk_tasks)) for chunk_id, chunk_tasks in chunks
        )
        completed: Dict[Any, Tuple[list, Optional[dict]]] = {}
        failed: List[Tuple[Any, str]] = []
        stolen: List[Any] = []
        busy: Dict[Any, _Worker] = {}

        if not idle:
            # Pool never came up (fork failure, sandboxing): report
            # everything failed so the caller's retry path takes over.
            return (
                completed,
                [(chunk_id, "spawn") for chunk_id, _ in pending],
                stolen,
            )

        while pending or busy:
            while idle and pending:
                worker = idle.pop()
                chunk_id, chunk_tasks = pending.popleft()
                try:
                    worker.conn.send(
                        ("chunk", chunk_id, chunk_tasks, session)
                    )
                except (OSError, BrokenPipeError):
                    # Worker died while idle: requeue, drop the worker.
                    _WORKER_CRASHES.inc()
                    worker.dead = True
                    pending.appendleft((chunk_id, chunk_tasks))
                    continue
                worker.chunk = (chunk_id, chunk_tasks)
                busy[worker.conn] = worker
            if not busy:
                if pending and steal_eval is not None:
                    self._steal(pending, completed, stolen, steal_eval)
                    continue
                # No live workers and nothing to steal with.
                failed.extend(
                    (chunk_id, "crash") for chunk_id, _ in pending
                )
                pending.clear()
                break
            ready = mp_connection.wait(list(busy), timeout=_POLL_S)
            if not ready:
                # Steal only onto a core no busy worker occupies.
                if (
                    busy
                    and pending
                    and steal_eval is not None
                    and len(busy) < usable_cores()
                ):
                    self._steal(pending, completed, stolen, steal_eval)
                continue
            for conn in ready:
                worker = busy.pop(conn)
                chunk_id = worker.chunk[0]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    _WORKER_CRASHES.inc()
                    _log.warning(
                        "pool worker %d died mid-chunk", worker.wid
                    )
                    failed.append((chunk_id, "crash"))
                    worker.chunk = None
                    worker.dead = True
                    worker.process.join(_JOIN_S)  # reap the corpse
                    continue  # refresh() respawns it on the next run()
                _, done_id, payload = message
                completed[done_id] = payload
                worker.chunk = None
                idle.append(worker)
        return completed, failed, stolen

    def _steal(self, pending, completed, stolen, steal_eval) -> None:
        """Reclaim the tail chunk and evaluate it in the parent."""
        chunk_id, chunk_tasks = pending.pop()
        _STEALS.inc()
        if trace.active:
            trace.event(
                "executor.steal",
                {"positions": list(chunk_id), "remaining": len(pending)},
            )
        completed[chunk_id] = (steal_eval(chunk_tasks), None)
        stolen.append(chunk_id)


# Process-wide shared pool (None-initialised: per-process after fork by
# design — a forked worker must never inherit a live pool handle).
_SHARED_POOL = None
_ATEXIT_REGISTERED = False


def get_shared_pool(jobs: int) -> WorkerPool:
    """Process-wide pool, grown (never shrunk) to ``jobs`` workers.

    Persistence is the point: the SA driver
    (:func:`~repro.parallel.sa.step_loops`, behind ``batched_anneal``
    and the control plane's retunes) calls ``map()`` once per batch,
    hundreds of times, and must not pay process spawn per batch.
    A smaller request reuses the bigger pool — per-call dispatch width
    is capped via ``run(max_workers=...)`` instead.
    """
    global _SHARED_POOL, _ATEXIT_REGISTERED
    pool = _SHARED_POOL
    if pool is not None and not pool.closed and pool.jobs >= jobs:
        return pool
    grown = jobs
    if pool is not None and not pool.closed:
        grown = max(jobs, pool.jobs)
        pool.close()
    _SHARED_POOL = WorkerPool(grown)
    if not _ATEXIT_REGISTERED:
        atexit.register(close_shared_pool)
        _ATEXIT_REGISTERED = True
    return _SHARED_POOL


def close_shared_pool() -> None:
    """Tear down the shared pool (tests, interpreter exit)."""
    global _SHARED_POOL
    if _SHARED_POOL is not None:
        _SHARED_POOL.close()
        _SHARED_POOL = None
