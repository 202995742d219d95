"""Task and result types for the parallel evaluation fabric.

Everything that crosses a process boundary lives here and is a plain
picklable dataclass:

* :class:`ScenarioSpec` — a *description* of one experiment scenario
  (fabric scale, workload, duration, weights).  Workers rebuild the
  live ``Network``/workload from the spec; the spec's
  :meth:`~ScenarioSpec.fingerprint` is the cache identity.
* :class:`EvalTask` — one unit of work: a scenario plus either a
  frozen :class:`~repro.simulator.dcqcn.DcqcnParams` (evaluated under
  a ``StaticTuner``) or a scheme name from
  ``repro.experiments.scenarios.SCHEME_FACTORIES``.  The task is the
  whole configuration of its evaluation, so no environment variable
  can change its result.
* :class:`EvalResult` — the outcome, including SHA-256 digests of the
  FCT records and interval stats so determinism across workers is
  checkable byte-for-byte.

:func:`evaluate_task` is the *single* evaluation function used by
in-process runs, pool workers, and the cache fill path — which is what
guarantees that parallel sweeps produce results identical to serial
execution.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.flow import FlowRecord
from repro.simulator.stats import IntervalStats
from repro.simulator.units import mb, ms
from repro.telemetry import trace
from repro.telemetry.registry import get_registry
from repro.tuning.search import StaticTuner
from repro.tuning.utility import UtilityWeights

_EVALS = get_registry().counter(
    "repro_evals_total", "Scenario evaluations run to completion"
)
_TASK_SECONDS = get_registry().histogram(
    "repro_task_seconds", help="Wall-clock seconds per evaluation task"
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Deterministic description of one evaluation scenario.

    ``seed`` seeds the fabric (ECN coin flips, probe peer choice);
    ``workload_seed`` seeds the traffic schedule.  Two specs with equal
    fields produce byte-identical runs.
    """

    workload: str = "hadoop"          # hadoop | alltoall | llm | influx
    scale: str = "small"
    duration: float = 0.05
    monitor_interval: float = ms(1.0)
    seed: int = 1
    workload_seed: int = 42
    load: float = 0.3                 # hadoop offered load
    workload_duration: float = 0.0    # 0 -> 0.6 * duration
    n_workers: int = 8                # alltoall / llm fan-out
    flow_size: int = mb(2.0)          # alltoall / llm flow size
    influx_start: float = 0.0         # 0 -> 0.3 * duration
    influx_duration: float = 0.0      # 0 -> 0.3 * duration
    weights: Tuple[float, float, float] = (0.2, 0.5, 0.3)
    stop_on_completion: bool = False  # alltoall: stop when all flows done

    def fingerprint(self) -> str:
        """Stable content hash identifying this scenario."""
        canonical = repr(
            tuple(
                (name, getattr(self, name))
                for name in sorted(self.__dataclass_fields__)
            )
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def utility_weights(self) -> UtilityWeights:
        return UtilityWeights(*self.weights)


@dataclass(frozen=True)
class EvalTask:
    """One independent simulation to run.

    Exactly one of ``params`` / ``scheme`` must be set.  ``seed``
    overrides the scenario's fabric seed so sweeps can hold the
    scenario constant while varying seeds (or vice versa); ``index``
    is the task's position in its sweep, used for ordered aggregation.
    """

    scenario: ScenarioSpec
    seed: int
    index: int = 0
    params: Optional[DcqcnParams] = None
    scheme: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.params is None) == (self.scheme is None):
            raise ValueError("set exactly one of params / scheme")

    @property
    def cacheable(self) -> bool:
        """Only frozen-parameter evaluations are pure."""
        return self.params is not None


@dataclass
class EvalResult:
    """Outcome of one evaluation (picklable, JSON-flattenable core)."""

    index: int
    seed: int
    utility: float                    # mean utility over all intervals
    utilities: List[float]
    records: List[FlowRecord]
    n_flows_total: int
    dispatches: int
    dropped_packets: int
    events: int
    wall_time: float
    worker_pid: int
    fct_digest: str
    interval_digest: str
    from_cache: bool = False
    #: Flight-recorder snapshot (plain picklable dict) when recording
    #: was enabled in the evaluating process.  Rides the fork-merge
    #: protocol back to the parent; ``SweepExecutor`` prunes all but
    #: the best-K recordings before results reach user code.  Never
    #: part of :meth:`cache_payload` — recordings are too large to
    #: persist per cache entry, and digests already identify the run.
    recording: Optional[dict] = None

    def mean_utility(self, skip: int = 0) -> float:
        values = self.utilities[skip:]
        return sum(values) / len(values) if values else 0.0

    def cache_payload(self) -> dict:
        """The JSON-safe slice of the result worth persisting."""
        return {
            "utility": self.utility,
            "utilities": list(self.utilities),
            "n_flows_total": self.n_flows_total,
            "dispatches": self.dispatches,
            "dropped_packets": self.dropped_packets,
            "events": self.events,
            "fct_digest": self.fct_digest,
            "interval_digest": self.interval_digest,
        }

    @classmethod
    def from_cache_payload(cls, task: "EvalTask", payload: dict) -> "EvalResult":
        return cls(
            index=task.index,
            seed=task.seed,
            utility=payload["utility"],
            utilities=list(payload["utilities"]),
            records=[],  # not persisted; digests identify the run
            n_flows_total=payload["n_flows_total"],
            dispatches=payload["dispatches"],
            dropped_packets=payload["dropped_packets"],
            events=payload["events"],
            wall_time=0.0,
            worker_pid=os.getpid(),
            fct_digest=payload["fct_digest"],
            interval_digest=payload["interval_digest"],
            from_cache=True,
        )


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def fct_digest(records: List[FlowRecord]) -> str:
    """SHA-256 over the byte-exact FCT record stream."""
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.flow_id},{r.src},{r.dst},{r.size},"
            f"{r.start_time!r},{r.finish_time!r},{r.tag}\n".encode()
        )
    return h.hexdigest()


def interval_digest(intervals: List[IntervalStats]) -> str:
    """SHA-256 over the byte-exact interval stat stream."""
    h = hashlib.sha256()
    for s in intervals:
        flow_bytes = ",".join(
            f"{k}:{v}" for k, v in sorted(s.flow_bytes.items())
        )
        h.update(
            f"{s.t_start!r},{s.t_end!r},{s.throughput_util!r},{s.norm_rtt!r},"
            f"{s.pfc_ok!r},{s.mean_rtt!r},{s.rtt_samples},{s.pause_fraction!r},"
            f"{s.active_uplinks},{s.total_tx_bytes},{s.dropped_packets},"
            f"[{flow_bytes}]\n".encode()
        )
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Scenario construction and evaluation
# ---------------------------------------------------------------------------

def build_scenario(spec: ScenarioSpec, seed: int):
    """Fresh ``(network, workload, stop_when)`` for one evaluation."""
    # Imported here: experiments.scenarios pulls in the full scheme
    # registry, which itself imports tuning modules.
    from repro.experiments.scenarios import (
        install_hadoop,
        install_influx,
        install_llm,
        make_network,
    )
    from repro.workloads import AllToAllOnce, IncastWorkload

    network = make_network(spec.scale, seed=seed)
    stop_when = None
    if spec.workload == "hadoop":
        workload = install_hadoop(
            network,
            load=spec.load,
            duration=spec.workload_duration or spec.duration * 0.6,
            seed=spec.workload_seed,
        )
    elif spec.workload == "alltoall":
        workload = AllToAllOnce(
            n_workers=spec.n_workers, flow_size=spec.flow_size
        )
        workload.install(network)
        if spec.stop_on_completion:
            stop_when = workload.all_completed
    elif spec.workload == "incast":
        # Fan-in is capped by the fabric: at most n_hosts - 1 senders
        # can converge on the receiver.
        last_sender = min(spec.n_workers, len(network.hosts) - 1)
        workload = IncastWorkload(
            receiver=0,
            senders=list(range(1, last_sender + 1)),
            flow_size=spec.flow_size,
        )
        workload.install(network)
    elif spec.workload == "llm":
        workload = install_llm(
            network, n_workers=spec.n_workers, flow_size=spec.flow_size
        )
    elif spec.workload == "influx":
        workload = install_influx(
            network,
            influx_start=spec.influx_start or spec.duration * 0.3,
            influx_duration=spec.influx_duration or spec.duration * 0.3,
            seed=spec.workload_seed,
        )
    else:
        raise ValueError(f"unknown workload {spec.workload!r}")
    return network, workload, stop_when


def scheduled_interval_count(spec: ScenarioSpec) -> int:
    """Monitor intervals a full run of ``spec`` closes (runner loop)."""
    return max(1, math.ceil(spec.duration / spec.monitor_interval - 1e-9))


def evaluate_task(task: EvalTask) -> EvalResult:
    """Build the task's scenario afresh, run it to completion, summarize.

    Pure in ``task`` (given a fixed code version): calling it twice, in
    any process, yields identical digests.
    """
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.scenarios import make_tuner

    spec = task.scenario
    network, _workload, stop_when = build_scenario(spec, task.seed)
    if task.params is not None:
        tuner = StaticTuner(task.params, "sweep-point")
    else:
        tuner = make_tuner(task.scheme)
    runner = ExperimentRunner(
        network,
        tuner,
        monitor_interval=spec.monitor_interval,
        weights=spec.utility_weights(),
    )
    t0 = time.perf_counter()
    with trace.span(
        "eval.task",
        {
            "seed": task.seed,
            "kind": task.scheme or "params",
            "index": task.index,
            "scenario": spec.fingerprint(),
        },
    ):
        result = runner.run(spec.duration, stop_when=stop_when)
    wall = time.perf_counter() - t0
    _TASK_SECONDS.observe(wall)
    _EVALS.inc()
    utilities = list(result.utilities)
    utility_value = sum(utilities) / len(utilities) if utilities else 0.0
    return EvalResult(
        index=task.index,
        seed=task.seed,
        utility=utility_value,
        utilities=utilities,
        records=list(result.records),
        n_flows_total=len(network.flows),
        dispatches=result.dispatches,
        dropped_packets=result.dropped_packets,
        events=result.events,
        wall_time=wall,
        worker_pid=os.getpid(),
        fct_digest=fct_digest(result.records),
        interval_digest=interval_digest(result.intervals),
        recording=result.recording,
    )
