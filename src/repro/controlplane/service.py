"""The sharded control-plane service: a "day in the life" at scale.

One :class:`ControlPlaneService` run simulates ``intervals`` monitor
intervals over ``n_shards × agents_per_shard`` ToR agents:

1. **Collect** — one vectorised pass of the run's
   :class:`~repro.controlplane.shards.RangeCollector` (built once, at
   the start of the run) over every agent yields one columnar batch
   carrying every shard's dedup claim.
2. **Aggregate** — the batch reduces rack → pod → global through the
   :class:`~repro.controlplane.aggregate.HierarchicalAggregator`, with
   the dedup invariant verified and the global FSD digest recorded.
3. **Account** — message bytes per tier (paper Table IV): every agent
   uploads one :class:`~repro.rpc.protocol.SwitchReport` to its rack,
   every rack forwards one :class:`~repro.rpc.protocol.
   AggregateReport` to its pod, every pod one to the global
   controller; finished retunes dispatch one :class:`~repro.rpc.
   protocol.ParamUpdate` per agent of the tenant.
4. **Trigger** — per-tenant KL over the tenant FSD partitions; a fired
   trigger starts that tenant's SA loop in the
   :class:`~repro.controlplane.loops.MultiplexedTuner`.
5. **Tune** — all active loops advance one multiplexed batch.

Timestamps in the accounting messages are the *simulated* interval
index (this module never reads the host clock); wall-clock timing of
runs belongs to the CLI and the benchmarks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.controlplane.aggregate import (
    AggregationResult,
    HierarchicalAggregator,
    fsd_digest,
)
from repro.controlplane.loops import MultiplexedTuner, TenantRetune
from repro.controlplane.shards import RangeCollector
from repro.controlplane.tenants import TenantTrigger, TenantTriggerBank
from repro.controlplane.topology import ShardTopology
from repro.controlplane.traffic import TrafficConfig
from repro.parallel.executor import SweepExecutor
from repro.parallel.tasks import ScenarioSpec
from repro.rpc.protocol import (
    AggregateReport,
    ParamUpdate,
    SwitchReport,
    message_wire_size,
)
from repro.telemetry import trace
from repro.tuning.annealing import AnnealingSchedule


@dataclass(frozen=True)
class ControlPlaneConfig:
    """One day-in-the-life run, fully deterministic."""

    topology: ShardTopology = ShardTopology()
    traffic: TrafficConfig = TrafficConfig()
    intervals: int = 6
    theta: float = 0.01
    #: Frozen evaluation scenario the per-tenant SA loops tune against.
    scenario: ScenarioSpec = ScenarioSpec(
        workload="alltoall",
        duration=0.02,
        n_workers=4,
        stop_on_completion=True,
    )
    batch_size: int = 2
    #: Short schedule so a retune finishes within a day-in-the-life run.
    schedule: AnnealingSchedule = AnnealingSchedule(
        initial_temp=90.0,
        final_temp=50.0,
        cooling_rate=0.6,
        iterations_per_temp=2,
    )

    def __post_init__(self) -> None:
        if self.intervals < 1:
            raise ValueError("need at least one interval")
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(
                f"theta must be finite and >= 0, got {self.theta!r}"
            )
        for shift in self.traffic.shifts:
            # A shift outside the run, or one at interval 0 (no earlier
            # FSD to diverge from), could never fire a trigger: reject
            # it instead of running a quiet day nobody asked for.
            if not 0 <= shift.tenant < self.topology.n_tenants:
                raise ValueError(
                    f"shift tenant {shift.tenant} is outside "
                    f"[0, {self.topology.n_tenants})"
                )
            if not 1 <= shift.interval < self.intervals:
                raise ValueError(
                    f"shift interval {shift.interval} is outside "
                    f"[1, {self.intervals})"
                )


@dataclass
class IntervalOutcome:
    """What one monitor interval produced."""

    interval: int
    digest: str
    tracked_flows: int
    elephant_fraction: float
    tenant_kls: Dict[int, float]
    triggers: List[TenantTrigger]
    tier_bytes: Tuple[int, int, int]  # agent→rack, rack→pod, pod→global


@dataclass
class ControlPlaneResult:
    """Everything a day-in-the-life run decided and dispatched."""

    config: ControlPlaneConfig
    outcomes: List[IntervalOutcome] = field(default_factory=list)
    retunes: List[TenantRetune] = field(default_factory=list)
    agent_rack_bytes: int = 0
    rack_pod_bytes: int = 0
    pod_global_bytes: int = 0
    param_update_bytes: int = 0

    def result_digest(self) -> str:
        """Stable digest over every decision the run made."""
        parts = [outcome.digest for outcome in self.outcomes]
        parts.extend(
            f"{t.tenant}:{t.interval}" for o in self.outcomes for t in o.triggers
        )
        parts.extend(
            f"{r.tenant}:{sorted(r.params.as_dict().items())!r}:{r.utility!r}"
            for r in self.retunes
        )
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def to_snapshot(self) -> dict:
        """JSON-safe summary for ``repro report`` (snapshot section)."""
        topo = self.config.topology
        per_switch = (
            self.agent_rack_bytes / (topo.n_agents * len(self.outcomes))
            if self.outcomes
            else 0.0
        )
        return {
            "shards": topo.n_shards,
            "agents": topo.n_agents,
            "racks": topo.n_racks,
            "pods": topo.n_pods,
            "tenants": topo.n_tenants,
            "intervals": len(self.outcomes),
            "agent_rack_bytes": self.agent_rack_bytes,
            "rack_pod_bytes": self.rack_pod_bytes,
            "pod_global_bytes": self.pod_global_bytes,
            "param_update_bytes": self.param_update_bytes,
            "per_switch_report_bytes": per_switch,
            "triggers": [
                {"tenant": t.tenant, "interval": t.interval, "kl": t.kl}
                for o in self.outcomes
                for t in o.triggers
            ],
            "retunes": [
                {
                    "tenant": r.tenant,
                    "trigger_interval": r.trigger_interval,
                    "finished_interval": r.finished_interval,
                    "utility": r.utility,
                    "evaluations": r.evaluations,
                    "params": r.params.as_dict(),
                }
                for r in self.retunes
            ],
            "digest": self.result_digest(),
        }


class ControlPlaneService:
    """Drives collect → aggregate → trigger → tune per interval."""

    def __init__(
        self,
        config: ControlPlaneConfig,
        executor: Optional[SweepExecutor] = None,
    ):
        self.config = config
        self.aggregator = HierarchicalAggregator(config.topology)
        self.triggers = TenantTriggerBank(
            config.topology.n_tenants, theta=config.theta
        )
        self.tuner = MultiplexedTuner(
            config.scenario,
            executor=executor,
            batch_size=config.batch_size,
            schedule=config.schedule,
        )
        self._report_sizes = self._wire_sizes()

    def _wire_sizes(self) -> Tuple[int, int, int]:
        """(switch report, aggregate report, param update) wire bytes."""
        topo = self.config.topology
        switch = message_wire_size(
            SwitchReport(
                agent_id=0,
                timestamp=0.0,
                throughput_bytes=0.0,
                pause_seconds=0.0,
                elephant_weight=0.0,
                tracked_flows=0,
            )
        )
        aggregate = message_wire_size(
            AggregateReport(
                level=1,
                node_id=0,
                timestamp=0.0,
                elephant_weight=0.0,
                mice_weight=0.0,
                tracked_flows=topo.n_agents,
            )
        )
        update = message_wire_size(
            ParamUpdate(timestamp=0.0, params=self.tuner.initial_params)
        )
        return switch, aggregate, update

    # -- the day in the life ---------------------------------------------

    def run(self) -> ControlPlaneResult:
        config = self.config
        topo = config.topology
        result = ControlPlaneResult(config=config)
        switch_size, aggregate_size, update_size = self._report_sizes
        with trace.span(
            "controlplane.run",
            {
                "shards": topo.n_shards,
                "agents": topo.n_agents,
                "tenants": topo.n_tenants,
                "intervals": config.intervals,
            },
        ):
            # Built inside the span: hoisting the run constants is part
            # of what collection costs, and is traced as such.
            collector = RangeCollector(topo, config.traffic)
            for interval in range(config.intervals):
                batch = collector.collect(interval)
                self.aggregator.begin_interval(interval)
                self.aggregator.ingest(batch)
                agg: AggregationResult = self.aggregator.aggregate()

                agent_rack = topo.n_agents * switch_size
                rack_pod = topo.n_racks * aggregate_size
                pod_global = topo.n_pods * aggregate_size
                result.agent_rack_bytes += agent_rack
                result.rack_pod_bytes += rack_pod
                result.pod_global_bytes += pod_global
                if trace.active:
                    trace.event(
                        "controlplane.interval",
                        {
                            "interval": interval,
                            "agents": topo.n_agents,
                            "tracked_flows": agg.tracked_flows,
                            "elephant_fraction": (
                                agg.global_fsd.elephant_fraction()
                            ),
                            "digest": agg.digest,
                        },
                    )
                    trace.event(
                        "controlplane.tier_bytes",
                        {
                            "interval": interval,
                            "agent_rack": agent_rack,
                            "rack_pod": rack_pod,
                            "pod_global": pod_global,
                        },
                    )

                fired = self.triggers.observe(interval, agg.tenant_fsds)
                for trigger in fired:
                    self.tuner.trigger(
                        trigger.tenant,
                        interval,
                        agg.tenant_fsds[trigger.tenant],
                    )
                finished = self.tuner.step(interval)
                for retune in finished:
                    dispatched = (
                        topo.tenant_agent_index(retune.tenant).size
                        * update_size
                    )
                    result.param_update_bytes += dispatched
                result.retunes.extend(finished)
                tenant_kls = {t: 0.0 for t in range(topo.n_tenants)}
                for trigger in fired:
                    tenant_kls[trigger.tenant] = trigger.kl
                result.outcomes.append(
                    IntervalOutcome(
                        interval=interval,
                        digest=agg.digest,
                        tracked_flows=agg.tracked_flows,
                        elephant_fraction=(
                            agg.global_fsd.elephant_fraction()
                        ),
                        tenant_kls=tenant_kls,
                        triggers=fired,
                        tier_bytes=(agent_rack, rack_pod, pod_global),
                    )
                )
        return result


def run_day_in_the_life(
    config: Optional[ControlPlaneConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ControlPlaneResult:
    """Convenience wrapper: build a service and run it once."""
    service = ControlPlaneService(config or ControlPlaneConfig(), executor)
    return service.run()


__all__ = [
    "ControlPlaneConfig",
    "ControlPlaneResult",
    "ControlPlaneService",
    "IntervalOutcome",
    "fsd_digest",
    "run_day_in_the_life",
]
