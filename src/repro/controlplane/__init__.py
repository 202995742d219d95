"""Sharded many-ToR control plane: hierarchical FSD aggregation.

Scales the single-controller loop of :mod:`repro.core.controller` to
1000+ simulated ToR agents: one vectorised pass collects every agent's
FSD row per interval, the rows aggregate rack → pod → global with the
TOS-dedup invariant verified per shard and per tier, per-tenant KL
triggers watch per-tenant FSD partitions, and multiple SA tuning loops
multiplex over one shared evaluation executor.  See DESIGN.md §14.
"""

from repro.controlplane.aggregate import (
    DedupViolation,
    HierarchicalAggregator,
    flat_global_fsd,
    fsd_digest,
)
from repro.controlplane.loops import MultiplexedTuner, TenantRetune
from repro.controlplane.service import (
    ControlPlaneConfig,
    ControlPlaneResult,
    ControlPlaneService,
    run_day_in_the_life,
)
from repro.controlplane.shards import RangeBatch, RangeCollector
from repro.controlplane.tenants import TenantTrigger, TenantTriggerBank
from repro.controlplane.topology import ShardTopology
from repro.controlplane.traffic import TenantProfile, TrafficConfig, TrafficShift

__all__ = [
    "ControlPlaneConfig",
    "ControlPlaneResult",
    "ControlPlaneService",
    "DedupViolation",
    "HierarchicalAggregator",
    "MultiplexedTuner",
    "RangeBatch",
    "RangeCollector",
    "ShardTopology",
    "TenantProfile",
    "TenantRetune",
    "TenantTrigger",
    "TenantTriggerBank",
    "TrafficConfig",
    "TrafficShift",
    "flat_global_fsd",
    "fsd_digest",
    "run_day_in_the_life",
]
