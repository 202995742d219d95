"""Hierarchical FSD aggregation: rack → pod → global, bit-identical.

The flat baseline (:func:`repro.monitor.fsd.merge_distributions` over
per-agent :class:`FlowSizeDistribution` objects, which is what
:class:`repro.monitor.aggregate.FsdAggregator` does today) walks one
Python object per report: a 31-float histogram tuple, two weight
floats and a per-flow state dict each.  At 1000+ agents that walk *is*
the control-plane hot path.  The :class:`HierarchicalAggregator`
replaces it with one preallocated ``(n_agents, 31)`` histogram matrix
plus weight/tracked lanes; shards write rows, and the three tiers
reduce with ``np.add.reduceat`` over contiguous rack/pod ranges.

Bit-identity contract (the bench gate):

* **Size-bucket counts** are small integers stored in float64 — sums are
  exact at every tier, so rack → pod → global reduceat equals the flat
  one-shot column sum bit-for-bit regardless of grouping.
* **Weights** are fractional (PE likelihood ``cum/tau``), so float
  addition is *not* associative and a tiered sum would drift from the
  flat merge.  Per-agent weight lanes are therefore carried to the
  global tier untouched and reduced there left to right in canonical
  agent order (:func:`~repro.simulator.ordered.ordered_sum`) — the
  exact operand sequence ``merge_distributions`` performs.

Dedup invariant (TOS-bit analogue): every flow is measured at exactly
one agent, expressed here as disjoint per-shard flow-id ranges, and
tracked-flow counts are conserved across tiers.  :meth:`
HierarchicalAggregator.verify_dedup` checks both and raises
:class:`DedupViolation` on overlap — merged FSDs are only meaningful
under this invariant.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.controlplane.shards import ShardBatch, shard_columns
from repro.controlplane.topology import ShardTopology
from repro.controlplane.traffic import TrafficConfig
from repro.monitor.fsd import (
    HISTOGRAM_BUCKETS,
    FlowSizeDistribution,
    merge_distributions,
)
from repro.simulator.ordered import ordered_sum

_DIGEST_STRUCT = struct.Struct("<" + "d" * (2 + HISTOGRAM_BUCKETS))


class DedupViolation(ValueError):
    """Two aggregation inputs claim the same flow (TOS dedup broken)."""


def fsd_digest(fsd: FlowSizeDistribution) -> str:
    """Content digest of an FSD's weights + histogram.

    Flow states are deliberately excluded: the hierarchical path never
    materializes per-flow dicts (that is the point), and the weights +
    histogram are exactly the state the KL trigger and SA bias consume.
    """
    payload = _DIGEST_STRUCT.pack(
        fsd.elephant_weight, fsd.mice_weight, *fsd.histogram
    )
    return hashlib.sha256(payload).hexdigest()


@dataclass
class AggregationResult:
    """One interval's reduced tiers."""

    interval: int
    global_fsd: FlowSizeDistribution
    tenant_fsds: Tuple[FlowSizeDistribution, ...]
    rack_hist: np.ndarray   # (n_racks, HISTOGRAM_BUCKETS)
    pod_hist: np.ndarray    # (n_pods, HISTOGRAM_BUCKETS)
    tracked_flows: int
    digest: str


class HierarchicalAggregator:
    """Rack → pod → global reduction over one preallocated matrix."""

    def __init__(self, topology: ShardTopology):
        self.topology = topology
        n = topology.n_agents
        self._hist = np.zeros((n, HISTOGRAM_BUCKETS))
        self._elephant = np.zeros(n)
        self._mice = np.zeros(n)
        self._tracked = np.zeros(n, dtype=np.int64)
        self._filled = np.zeros(n, dtype=bool)
        self._ranges: List[Tuple[int, int, int]] = []  # (lo, hi, shard)
        self._interval = -1
        self._rack_starts = topology.rack_starts()
        self._pod_starts = topology.pod_starts()
        self._tenant_index = [
            topology.tenant_agent_index(t) for t in range(topology.n_tenants)
        ]

    def begin_interval(self, interval: int) -> None:
        self._interval = interval
        self._hist[:] = 0.0
        self._elephant[:] = 0.0
        self._mice[:] = 0.0
        self._tracked[:] = 0
        self._filled[:] = False
        self._ranges = []

    def ingest(self, batch: ShardBatch) -> None:
        """Write one shard's per-agent rows into the tier matrix."""
        if batch.interval != self._interval:
            raise ValueError(
                f"batch interval {batch.interval} != current {self._interval}"
            )
        lo, hi = batch.agent_lo, batch.agent_hi
        if self._filled[lo:hi].any():
            raise DedupViolation(
                f"agents [{lo}, {hi}) reported twice in interval "
                f"{self._interval}"
            )
        self._hist[lo:hi] = batch.hist
        self._elephant[lo:hi] = batch.elephant
        self._mice[lo:hi] = batch.mice
        self._tracked[lo:hi] = batch.tracked
        self._filled[lo:hi] = True
        self._ranges.append((batch.flow_id_lo, batch.flow_id_hi, batch.shard_id))

    def verify_dedup(self) -> None:
        """Disjoint flow-id ranges across shards, or DedupViolation."""
        spans = sorted(self._ranges)
        for (a_lo, a_hi, a_shard), (b_lo, b_hi, b_shard) in zip(
            spans, spans[1:]
        ):
            if b_lo < a_hi:
                raise DedupViolation(
                    f"flow-id ranges of shards {a_shard} and {b_shard} "
                    f"overlap: [{a_lo}, {a_hi}) vs [{b_lo}, {b_hi})"
                )

    def aggregate(self) -> AggregationResult:
        """Reduce the filled matrix through all three tiers."""
        if not self._filled.all():
            missing = int((~self._filled).sum())
            raise ValueError(
                f"{missing} agents missing from interval {self._interval}"
            )
        self.verify_dedup()
        # Integer-count histograms: exact at every tier, any grouping.
        rack_hist = np.add.reduceat(self._hist, self._rack_starts, axis=0)
        pod_hist = np.add.reduceat(rack_hist, self._pod_starts, axis=0)
        global_hist = np.add.reduceat(
            pod_hist, np.array([0]), axis=0
        )[0]
        # Fractional weights: sequential canonical-order sum at the
        # global tier only (see module docstring).
        global_fsd = FlowSizeDistribution(
            elephant_weight=ordered_sum(self._elephant.tolist()),
            mice_weight=ordered_sum(self._mice.tolist()),
            histogram=tuple(float(v) for v in global_hist),
        )
        tenant_fsds = []
        for index in self._tenant_index:
            tenant_hist = np.sum(self._hist[index], axis=0)
            tenant_fsds.append(
                FlowSizeDistribution(
                    elephant_weight=ordered_sum(self._elephant[index].tolist()),
                    mice_weight=ordered_sum(self._mice[index].tolist()),
                    histogram=tuple(float(v) for v in tenant_hist),
                )
            )
        tracked = int(self._tracked.sum())
        # Tier conservation: the global histogram mass must equal the
        # tracked-flow count (each flow lands in exactly one bucket of
        # exactly one agent row).
        if int(global_hist.sum()) != tracked:
            raise DedupViolation(
                f"histogram mass {int(global_hist.sum())} != tracked "
                f"flows {tracked}"
            )
        return AggregationResult(
            interval=self._interval,
            global_fsd=global_fsd,
            tenant_fsds=tuple(tenant_fsds),
            rack_hist=rack_hist,
            pod_hist=pod_hist,
            tracked_flows=tracked,
            digest=fsd_digest(global_fsd),
        )


def flat_agent_fsds(
    topology: ShardTopology, traffic: TrafficConfig, interval: int
) -> List[FlowSizeDistribution]:
    """Per-agent FSD objects the flat baseline merges (canonical order)."""
    per = traffic.flows_per_agent
    fsds: List[FlowSizeDistribution] = []
    for shard_id in range(topology.n_shards):
        flow_ids, cum, codes = shard_columns(
            topology, traffic, shard_id, interval
        )
        lo, hi = topology.shard_bounds(shard_id)
        for i in range(hi - lo):
            sl = slice(i * per, (i + 1) * per)
            fsds.append(
                FlowSizeDistribution.from_columns(
                    flow_ids[sl], cum[sl], codes[sl], tau=traffic.tau
                )
            )
    return fsds


def flat_global_fsd(
    topology: ShardTopology, traffic: TrafficConfig, interval: int
) -> FlowSizeDistribution:
    """The flat-baseline global FSD (per-agent objects + flat merge)."""
    return merge_distributions(flat_agent_fsds(topology, traffic, interval))


def flat_tenant_fsds(
    topology: ShardTopology, traffic: TrafficConfig, interval: int
) -> Dict[int, FlowSizeDistribution]:
    """Flat-baseline per-tenant FSDs (canonical-order merge per tenant)."""
    fsds = flat_agent_fsds(topology, traffic, interval)
    out: Dict[int, FlowSizeDistribution] = {}
    for tenant in range(topology.n_tenants):
        index = topology.tenant_agent_index(tenant)
        out[tenant] = merge_distributions(fsds[int(a)] for a in index)
    return out
