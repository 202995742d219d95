"""Collection: per-agent FSD rows for a contiguous agent range.

One :class:`RangeCollector` stands for "run every ToR agent of
``[agent_lo, agent_hi)`` for one monitor interval" as a single
vectorised pass: the traffic source's columns for the whole range
(:class:`~repro.controlplane.traffic.SlotColumns`), two row sums and
one ``bincount``.  What it hands the hierarchical aggregator is already
*rack-tier compressed* — per-agent histogram rows, elephant/mice
weight lanes and tracked-flow counts as flat numpy arrays, not
per-report Python objects.

Shards are the **dedup partition**, not a dispatch unit: the range's
rows are cut into one :class:`ShardBatch` per shard (views, no copies),
each claiming the flow-id range its agents own, so the aggregator's
double-report and disjoint-flow-id checks see exactly what per-shard
uploads would show them.  Why collection is one in-process pass and
not per-shard work for the pool: DESIGN.md §14.

Bit-compatibility contract: for every agent the weight lanes and
histogram row equal exactly what :meth:`repro.monitor.fsd.
FlowSizeDistribution.from_columns` computes from that agent's slice of
:func:`~repro.controlplane.traffic.flow_columns` — same likelihood
expression, same dtypes, same pairwise summation over the same
contiguous operands — so a flat :func:`~repro.monitor.fsd.
merge_distributions` over per-agent FSD objects and the hierarchical
tier reduction land on bit-identical global distributions.
:func:`shard_columns` is that per-agent reference path's entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.controlplane.topology import ShardTopology
from repro.controlplane.traffic import SlotColumns, TrafficConfig, flow_columns
from repro.monitor.fsd import HISTOGRAM_BUCKETS


@dataclass
class ShardBatch:
    """One shard's columnar upload for one monitor interval."""

    shard_id: int
    interval: int
    agent_lo: int
    agent_hi: int
    hist: np.ndarray        # (agents, HISTOGRAM_BUCKETS) float64
    elephant: np.ndarray    # (agents,) float64 weight lane
    mice: np.ndarray        # (agents,) float64 weight lane
    tracked: np.ndarray     # (agents,) int64
    flow_id_lo: int         # dedup range: flow ids in [lo, hi), disjoint
    flow_id_hi: int         # across shards by construction

    @property
    def n_agents(self) -> int:
        return self.agent_hi - self.agent_lo


def shard_columns(
    topology: ShardTopology,
    traffic: TrafficConfig,
    shard_id: int,
    interval: int,
):
    """Raw ``(flow_ids, cum_bytes, state_codes)`` columns of one shard."""
    lo, hi = topology.shard_bounds(shard_id)
    agent_ids = np.arange(lo, hi, dtype=np.int64)
    tenants = np.fromiter(
        (topology.tenant_of_agent(int(a)) for a in agent_ids),
        dtype=np.int64,
        count=agent_ids.size,
    )
    return flow_columns(traffic, agent_ids, tenants, interval)


class RangeCollector:
    """Collects agents ``[agent_lo, agent_hi)`` in one vectorised pass.

    Built once per ``(topology, traffic, range)``; :meth:`collect` may
    then be called for any interval, in any order.  The range need not
    be shard- or rack-aligned: a shard it covers partly yields a batch
    for the covered agents only.
    """

    def __init__(
        self,
        topology: ShardTopology,
        traffic: TrafficConfig,
        agent_lo: int = 0,
        agent_hi: Optional[int] = None,
    ):
        if agent_hi is None:
            agent_hi = topology.n_agents
        if not 0 <= agent_lo < agent_hi <= topology.n_agents:
            raise ValueError(
                f"agent range [{agent_lo}, {agent_hi}) outside "
                f"[0, {topology.n_agents})"
            )
        self.agent_lo, self.agent_hi = agent_lo, agent_hi
        n = agent_hi - agent_lo
        self._slots = SlotColumns(
            traffic,
            agent_lo,
            agent_hi,
            topology.tenant_of_agent(np.arange(agent_lo, agent_hi)),
        )
        self._row_offsets = (np.arange(n) * HISTOGRAM_BUCKETS)[:, None]
        self._tracked = np.full(n, traffic.flows_per_agent, dtype=np.int64)
        # (shard, first row, end row, flow_id_lo, flow_id_hi): the dedup
        # ranges come from the flow-id column itself, not from slot
        # arithmetic, so a generator that broke disjointness would show.
        per_shard = topology.agents_per_shard
        self._shards = []
        for shard in range(agent_lo // per_shard, (agent_hi - 1) // per_shard + 1):
            lo = max(agent_lo, shard * per_shard) - agent_lo
            hi = min(agent_hi, (shard + 1) * per_shard) - agent_lo
            ids = self._slots.flow_ids[lo:hi]
            self._shards.append(
                (shard, lo, hi, int(ids.min()), int(ids.max()) + 1)
            )

    def collect(self, interval: int) -> List[ShardBatch]:
        """One :class:`ShardBatch` per shard the range touches."""
        likelihood, buckets = self._slots.at(interval)
        n = self.agent_hi - self.agent_lo
        # Row sums, not np.add.reduceat: a contiguous-row sum is
        # pairwise like from_columns' np.sum over the agent's slice,
        # reduceat adds left to right and drifts in the last bits.
        elephant = likelihood.sum(axis=1)
        mice = (1.0 - likelihood).sum(axis=1)
        # from_columns' bincount, batched: (agent row × bucket) indices.
        hist = (
            np.bincount(
                (self._row_offsets + buckets).ravel(),
                minlength=n * HISTOGRAM_BUCKETS,
            )
            .reshape(n, HISTOGRAM_BUCKETS)
            .astype(float)
        )
        return [
            ShardBatch(
                shard_id=shard,
                interval=interval,
                agent_lo=self.agent_lo + lo,
                agent_hi=self.agent_lo + hi,
                hist=hist[lo:hi],
                elephant=elephant[lo:hi],
                mice=mice[lo:hi],
                tracked=self._tracked[lo:hi],
                flow_id_lo=flow_id_lo,
                flow_id_hi=flow_id_hi,
            )
            for shard, lo, hi, flow_id_lo, flow_id_hi in self._shards
        ]
