"""Trace record schema: the contract between emitters and analyzers.

Every line of a trace file is one JSON object.  Common envelope::

    ts      float   >= 0, monotonic seconds since the writer's emitter
                    started (per-process clock; compare within a pid)
    run     str     run id shared by every process in the run
    pid     int     writing process
    kind    "event" | "span"
    name    str     dotted record name (catalog below)
    parent  str|null enclosing span id, if any
    attrs   object  record-specific payload

Spans additionally carry::

    span    str     span id ("<pid hex>.<seq>"), unique in the file
    dur     float   >= 0 seconds

The **catalog** maps known record names to the attr keys they must
carry; unknown names are structurally validated only (forward
compatible: new instrumentation does not break old analyzers).
:func:`validate_record` returns a list of problems (empty = valid) and
:func:`validate_file` walks a whole JSONL file, also reporting a span
id that occurs twice — the CI gate and the
``python -m repro telemetry --validate`` path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

SCHEMA_VERSION = 1

#: Required ``attrs`` keys per known *event* name.
#:
#: This catalog is the telemetry contract in *both* directions: the
#: runtime validator requires every listed key on recorded traces, and
#: the replint RL003 check statically diffs every ``trace.event``/
#: ``trace.span`` call site against it — an emit site may carry
#: exactly these keys, no more, no fewer.  Keep the two in lockstep:
#: changing an instrumentation site means changing this tuple (and
#: vice versa), which is precisely the review speed bump we want.
EVENT_ATTRS: Dict[str, Tuple[str, ...]] = {
    # engine / runner: one per monitor interval
    "engine.interval": (
        "t_end", "events", "utility", "throughput_util", "norm_rtt",
        "pfc_ok", "heap", "cancelled", "compactions", "freelist",
    ),
    # monitor plane
    "monitor.report": (
        "switch", "tracked_flows", "interval_bytes", "payload_bytes",
        "total_flows",
    ),
    "monitor.fsd_upload": (
        "t", "agents", "payload_bytes", "total_flows", "elephant_fraction",
    ),
    # controller decisions
    "controller.kl": (
        "t", "kl", "theta", "triggered", "tuning_active", "utility",
        "terms",
    ),
    "controller.dispatch": ("t", "params"),
    # simulated annealing (Algorithm 1)
    "sa.begin": ("temperature", "initial_utility", "params", "guided"),
    "sa.step": (
        "temperature", "iteration", "feedbacks", "params", "utility",
        "accepted", "best_utility", "terms",
    ),
    "sa.batch": (
        "batch", "size", "proposed", "aborted", "cache_hits",
        "temperature", "best_utility",
    ),
    # hybrid flow/packet engine: one per fluid sync point
    "engine.hybrid": ("t", "fluid_flows", "fluid_bytes", "virtual_queue_max"),
    # evaluation fabric
    "cache.lookup": ("hit", "scenario", "seed"),
    "executor.retry": ("positions",),
    "executor.strategy": ("strategy", "tasks", "jobs", "est_cost_ms", "chunk"),
    "executor.steal": ("positions", "remaining"),
    # multi-fidelity evaluation
    "fidelity.screen": ("proposed", "kept", "survivors", "scores"),
    "eval.abort": (
        "index", "seed", "intervals_run", "intervals_total", "bound",
        "threshold",
    ),
    # flight recorder / run reports
    "record.snapshot": ("samples", "seen", "stride", "flows", "budget"),
    # sharded control plane: one per monitor interval / trigger check
    "controlplane.interval": (
        "interval", "agents", "tracked_flows", "elephant_fraction",
        "digest",
    ),
    "controlplane.tier_bytes": (
        "interval", "agent_rack", "rack_pod", "pod_global",
    ),
    "controlplane.tenant_kl": ("interval", "tenant", "kl", "theta", "triggered"),
    "controlplane.retune": ("tenant", "params", "utility", "evaluations"),
}

#: Required ``attrs`` keys per known *span* name.
SPAN_ATTRS: Dict[str, Tuple[str, ...]] = {
    "eval.task": ("seed", "kind", "index", "scenario"),
    "executor.map": ("tasks", "jobs", "strategy"),
    "sweep.grid": ("points", "fidelity"),
    "sa.search": ("batch_size", "fidelity"),
    "report.render": ("source", "format"),
    "controlplane.run": ("shards", "agents", "tenants", "intervals"),
}

_ENVELOPE_KEYS = ("ts", "run", "pid", "kind", "name", "attrs")


def validate_record(record: Any) -> List[str]:
    """Problems with one decoded record; empty list means valid."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    for key in _ENVELOPE_KEYS:
        if key not in record:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems

    ts = record["ts"]
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        problems.append(f"ts must be a non-negative number, got {ts!r}")
    if not isinstance(record["run"], str) or not record["run"]:
        problems.append("run must be a non-empty string")
    if not isinstance(record["pid"], int) or isinstance(record["pid"], bool):
        problems.append("pid must be an integer")
    name = record["name"]
    if not isinstance(name, str) or not name:
        problems.append("name must be a non-empty string")
    attrs = record["attrs"]
    if not isinstance(attrs, dict):
        problems.append("attrs must be an object")
        attrs = {}
    parent = record.get("parent")
    if parent is not None and not isinstance(parent, str):
        problems.append("parent must be a string or null")

    kind = record["kind"]
    if kind == "span":
        span_id = record.get("span")
        if not isinstance(span_id, str) or not span_id:
            problems.append("span record needs a string span id")
        dur = record.get("dur")
        if (
            not isinstance(dur, (int, float))
            or isinstance(dur, bool)
            or dur < 0
        ):
            problems.append("span record needs dur >= 0")
        required = SPAN_ATTRS.get(name, ())
    elif kind == "event":
        required = EVENT_ATTRS.get(name, ())
    else:
        problems.append(f"kind must be 'span' or 'event', got {kind!r}")
        required = ()

    missing = [key for key in required if key not in attrs]
    if missing:
        problems.append(f"{name}: attrs missing {missing}")
    return problems


def validate_file(path) -> Tuple[int, List[Tuple[int, str]]]:
    """``(n_records, [(lineno, problem), ...])`` for a whole trace."""
    problems: List[Tuple[int, str]] = []
    first_line: Dict[str, int] = {}  # span id -> line it first appeared
    count = 0
    with open(Path(path)) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            count += 1
            try:
                record = json.loads(line)
            except ValueError as exc:
                problems.append((lineno, f"not valid JSON: {exc}"))
                continue
            problems.extend((lineno, p) for p in validate_record(record))
            span_id = record.get("span") if isinstance(record, dict) else None
            if not isinstance(span_id, str):
                continue
            first = first_line.setdefault(span_id, lineno)
            if first != lineno:
                problems.append(
                    (lineno, f"span id {span_id!r} repeats line {first}")
                )
    return count, problems
