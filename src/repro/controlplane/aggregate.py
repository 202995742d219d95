"""Hierarchical FSD aggregation: rack → pod → global, bit-identical.

The flat baseline (:func:`repro.monitor.fsd.merge_distributions` over
per-agent :class:`FlowSizeDistribution` objects, which is what
:class:`repro.monitor.aggregate.FsdAggregator` does today) walks one
Python object per report: a 31-float histogram tuple, two weight
floats and a per-flow state dict each.  At 1000+ agents that walk *is*
the control-plane hot path.  The :class:`HierarchicalAggregator`
replaces it with one preallocated ``(n_agents, 31)`` histogram matrix
plus weight/tracked lanes; each collector's
:class:`~repro.controlplane.shards.RangeBatch` writes its rows with one
slice per lane, and the tiers reduce with ``np.add.reduceat`` over
contiguous rack/pod ranges.

Bit-identity contract (the bench gate):

* **Size-bucket counts** are small integers stored in float64 — sums are
  exact at every tier, so rack → pod → global reduceat equals the flat
  one-shot column sum bit-for-bit regardless of grouping, and a
  tenant's histogram is the sum of its racks' rows (tenancy is per
  rack).
* **Weights** are fractional (PE likelihood ``cum/tau``), so float
  addition is *not* associative and a tiered sum would drift from the
  flat merge.  Per-agent weight lanes are therefore carried to the
  global tier untouched and folded there left to right from ``0.0`` in
  canonical agent order — the exact operand sequence
  ``merge_distributions`` performs.  Every lane, global and per tenant,
  is one row of a single :func:`ordered_row_sums` call, which equals
  :func:`~repro.simulator.ordered.ordered_sum` of each row bit for bit.

Dedup invariant (TOS-bit analogue): every flow is measured at exactly
one agent, expressed here as disjoint per-shard flow-id claims, and
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

from repro.controlplane.shards import RangeBatch, shard_columns
from repro.controlplane.topology import ShardTopology
from repro.controlplane.traffic import TrafficConfig
from repro.monitor.fsd import (
    HISTOGRAM_BUCKETS,
    FlowSizeDistribution,
    merge_distributions,
)

_DIGEST_STRUCT = struct.Struct("<" + "d" * (2 + HISTOGRAM_BUCKETS))


class DedupViolation(ValueError):
    """Two aggregation inputs claim the same flow (TOS dedup broken)."""


def ordered_row_sums(rows) -> np.ndarray:
    """:func:`~repro.simulator.ordered.ordered_sum` of every row, bit for bit.

    Folds the last axis as ``0.0 + r0 + r1 + ...`` strictly left to
    right: ``np.add.accumulate`` is a running sum, one add per element
    in order, where ``np.sum`` would add pairwise.  The leading ``+0.0``
    column is ``ordered_sum``'s start value (it turns a lone ``-0.0``
    into ``+0.0``); a fold that starts at ``+0.0`` never reaches
    ``-0.0``, so trailing ``+0.0`` padding leaves a row's sum unchanged.
    """
    rows = np.asarray(rows, dtype=np.float64)
    folded = np.zeros(rows.shape[:-1] + (rows.shape[-1] + 1,))
    folded[..., 1:] = rows
    return np.add.accumulate(folded, axis=-1)[..., -1]


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
        # Both weight lanes and one +0.0 pad slot in a single vector,
        # so one gather lays out every fold (see _fold_index).
        self._weights = np.zeros(2 * n + 1)
        self._elephant = self._weights[:n]
        self._mice = self._weights[n : 2 * n]
        self._tracked = np.zeros(n, dtype=np.int64)
        self._filled = np.zeros(n, dtype=bool)
        self._batches: List[RangeBatch] = []
        self._interval = -1
        self._rack_starts = topology.rack_starts()
        self._pod_starts = topology.pod_starts()
        # Fold rows, tenant-major: (global, tenant 0, ...) × (elephant,
        # mice), each its agents in canonical order, padded at the end
        # with the +0.0 slot up to the global row's n agents.
        n_groups = 1 + topology.n_tenants
        self._fold_index = np.full((n_groups, 2, n), 2 * n)
        groups = [np.arange(n)] + [
            topology.tenant_agent_index(t) for t in range(topology.n_tenants)
        ]
        for row, agents in zip(self._fold_index, groups):
            row[0, : agents.size] = agents
            row[1, : agents.size] = n + agents

    def begin_interval(self, interval: int) -> None:
        # The lanes are not zeroed: aggregate() refuses to run until
        # every row has been written again this interval.
        self._interval = interval
        self._filled[:] = False
        self._batches = []

    def ingest(self, batch: RangeBatch) -> None:
        """Write one collector's rows into the tier matrix."""
        if batch.interval != self._interval:
            raise ValueError(
                f"batch interval {batch.interval} != current {self._interval}"
            )
        lo, hi = batch.agent_lo, batch.agent_hi
        # The claims chain lo -> ... -> hi: each starts where the last ended.
        if not np.array_equal(
            np.append(lo, batch.shard_agent_hi), np.append(batch.shard_agent_lo, hi)
        ):
            raise DedupViolation(
                f"the shard claims of agents [{lo}, {hi}) do not tile them"
            )
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
        self._batches.append(batch)

    def verify_dedup(self) -> None:
        """Disjoint flow-id claims across shards, or DedupViolation."""
        if not self._batches:
            return
        lo, hi, shard = (
            np.concatenate([getattr(b, lane) for b in self._batches])
            for lane in ("flow_id_lo", "flow_id_hi", "shard_ids")
        )
        order = np.lexsort((shard, hi, lo))
        lo, hi, shard = lo[order], hi[order], shard[order]
        overlap = np.flatnonzero(lo[1:] < hi[:-1])
        if overlap.size:
            a, b = overlap[0], overlap[0] + 1
            raise DedupViolation(
                f"flow-id ranges of shards {shard[a]} and {shard[b]} "
                f"overlap: [{lo[a]}, {hi[a]}) vs [{lo[b]}, {hi[b]})"
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
        global_hist = pod_hist.sum(axis=0)
        n_tenants = self.topology.n_tenants
        hists = [global_hist] + [
            rack_hist[tenant::n_tenants].sum(axis=0)
            for tenant in range(n_tenants)
        ]
        # Fractional weights: every lane folded left to right in
        # canonical agent order (see module docstring).
        weights = ordered_row_sums(self._weights[self._fold_index]).tolist()
        global_fsd, *tenant_fsds = (
            FlowSizeDistribution(
                elephant_weight=elephant,
                mice_weight=mice,
                histogram=tuple(hist.tolist()),
            )
            for (elephant, mice), hist in zip(weights, hists)
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
