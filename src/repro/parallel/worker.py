"""Persistent pool worker: the child half of :mod:`repro.parallel.pool`.

A worker process is forked once per pool lifetime, not once per sweep.
It initializes once — imports and zeroed telemetry counters — and
then serves chunks over its duplex pipe until told to stop, which is
what amortizes the spawn + import cost the old per-sweep
``ProcessPoolExecutor`` paid on every ``map()``.  Every task is a
fresh :func:`~repro.parallel.tasks.evaluate_task`.

Message protocol (parent → worker):

* ``("chunk", chunk_id, [EvalTask, ...], session)`` — evaluate, reply.
  ``session`` is the parent's :class:`~repro.telemetry.Session`; the
  worker applies it whenever it differs from the last one applied, so
  the first chunk replaces the telemetry a fork inherited (the
  parent's trace emitter, whose pid and span counter are not ours).
* ``("stop",)`` / pipe EOF — exit cleanly.

Reply (worker → parent): ``("done", chunk_id, (results,
registry_snapshot))`` over the same pipe.

The registry snapshot (``{"counters": {...}}``) rides with every
chunk and is reset on capture, so each chunk's counter delta is added
into the parent exactly once.  The registry is also reset at worker startup: a fork
inherits whatever totals the parent had accumulated, and shipping
those back would double-count.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import connection as mp_connection

from repro.parallel.tasks import evaluate_task
from repro.telemetry import apply_session
from repro.telemetry.registry import get_registry

#: Test hook, called with ``(chunk_id, tasks)`` before a chunk is
#: evaluated.  Forked workers inherit a monkeypatched value — the
#: crashed-worker tests use it to kill a worker mid-chunk.
_CRASH_HOOK = None


def _worker_main(conn) -> None:
    """Worker process entry point: serve chunks until stopped."""
    # Fork copies the parent's live counters; deltas must start at zero.
    get_registry().reset()
    # A forked sibling inherits our parent-side pipe end, so a dead
    # parent does not reliably EOF the pipe.  Waiting on the parent's
    # sentinel alongside the pipe catches that case: if the parent dies
    # (even SIGKILL, where no atexit runs), the sentinel fires and the
    # worker exits instead of lingering as an orphan.
    parent = multiprocessing.parent_process()
    waitables = [conn] if parent is None else [conn, parent.sentinel]
    applied = None
    try:
        while True:
            try:
                ready = mp_connection.wait(waitables)
                if conn not in ready:
                    break  # parent died without saying stop
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent went away
            if message is None or message[0] == "stop":
                break
            _, chunk_id, tasks, session = message
            if session != applied:
                apply_session(session)
                applied = session
            if _CRASH_HOOK is not None:
                _CRASH_HOOK(chunk_id, tasks)
            results = [evaluate_task(task) for task in tasks]
            conn.send(
                ("done", chunk_id, (results, get_registry().snapshot(reset=True)))
            )
    finally:
        conn.close()
