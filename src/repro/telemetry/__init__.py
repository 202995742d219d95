"""Unified observability layer: metrics, tracing, logging, analysis.

Small, dependency-free pieces behind one switch per process:

* :mod:`repro.telemetry.registry` — process-local counters, only the
  nine something reads (the perf bench and the tests), with a
  snapshot/merge protocol so pool workers add their counts into the
  parent; every other count lives on a result object and in the trace;
* :mod:`repro.telemetry.trace` — append-only JSONL span/event
  emitter, off unless ``--trace`` (default ``REPRO_TRACE``) is given;
  the disabled hot path is one branch;
* :mod:`repro.telemetry.recorder` — the flight recorder (``--record``):
  what the *network* did, sampled at monitor-interval boundaries;
* :mod:`repro.telemetry.log` — stdlib-logging shim: diagnostics to
  stderr at ``REPRO_LOG_LEVEL``, user-facing CLI output via
  :func:`~repro.telemetry.log.echo` on stdout;
* :mod:`repro.telemetry.schema` / :mod:`repro.telemetry.summary` —
  the trace record contract, a validator, and the analysis behind
  ``python -m repro telemetry`` (summary and trace-diff).

**One session, one path into a worker.**  :func:`session` captures
this process's trace destination and run id, whether the recorder is
on, and the ``repro`` log level as one frozen, picklable
:class:`Session`.  The worker pool ships it on every chunk message and
a worker calls :func:`apply_session` when it differs from the one it
last applied.  Nothing telemetry-related crosses processes through the
environment, and no module configures itself at import time.

See README.md "Observability" for the counter list and record
schema.
"""

from dataclasses import dataclass
from typing import Optional

from repro.telemetry import recorder, trace
from repro.telemetry.log import echo, get_logger, set_level
from repro.telemetry.registry import (
    Counter,
    MetricsRegistry,
    get_registry,
)
from repro.telemetry.schema import validate_file, validate_record
from repro.telemetry.summary import TraceSummary, format_diff, format_summary


@dataclass(frozen=True)
class Session:
    """Telemetry state a pool worker must share with its parent."""

    trace_path: Optional[str]
    run_id: Optional[str]
    record: bool
    log_level: int


def session() -> Session:
    """This process's telemetry state as one picklable value."""
    path = trace.trace_path()
    return Session(
        trace_path=None if path is None else str(path),
        run_id=trace.current_run_id(),
        record=recorder.active,
        log_level=get_logger().level,
    )


def apply_session(value: Session) -> None:
    """Adopt ``value`` in a pool worker.

    Tracing opens this process's own emitter on the parent's file and
    run id (own pid, fresh span counter, empty span stack).  The
    recorder only needs its flag: snapshots ride back on results.
    """
    if value.trace_path is None:
        trace.disable()
    else:
        trace.configure(value.trace_path, run_id=value.run_id)
    if value.record:
        recorder.configure()
    else:
        recorder.disable()
    set_level(value.log_level)


__all__ = [
    "Counter",
    "MetricsRegistry",
    "Session",
    "TraceSummary",
    "apply_session",
    "echo",
    "format_diff",
    "format_summary",
    "get_logger",
    "get_registry",
    "recorder",
    "session",
    "trace",
    "validate_file",
    "validate_record",
]
