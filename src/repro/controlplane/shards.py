"""Collection: one columnar batch of FSD rows per contiguous agent range.

One :class:`RangeCollector` stands for "run every ToR agent of
``[agent_lo, agent_hi)`` for one monitor interval" as a single
vectorised pass: the traffic source's columns for the whole range
(:class:`~repro.controlplane.traffic.SlotColumns`), two row sums and
one ``bincount``.  What it hands the hierarchical aggregator is one
:class:`RangeBatch`, already *rack-tier compressed* — per-agent
histogram rows, elephant/mice weight lanes and tracked-flow counts as
flat numpy arrays, not per-report Python objects.

Shards are the **dedup partition**, not a dispatch unit: the batch
carries one claim per shard the range touches — the shard id, the
agents of the range it covers and the flow-id range those agents own —
as small arrays fixed when the collector is built.  The aggregator
checks double reports, disjoint flow-id claims and tier mass over
those arrays, so it sees exactly what per-shard uploads would show
it.  Why collection is one in-process pass and not per-shard work for
the pool: DESIGN.md §14.

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
from typing import Optional

import numpy as np

from repro.controlplane.topology import ShardTopology
from repro.controlplane.traffic import SlotColumns, TrafficConfig, flow_columns
from repro.monitor.fsd import HISTOGRAM_BUCKETS


@dataclass(frozen=True)
class RangeBatch:
    """One agent range's columnar upload for one monitor interval.

    The per-agent lanes are row ``i`` = agent ``agent_lo + i``; the
    ``shard_*``/``flow_id_*`` arrays hold one dedup claim per shard the
    range touches, in agent order: the claim's agents
    ``[shard_agent_lo, shard_agent_hi)`` own exactly the flow ids
    ``[flow_id_lo, flow_id_hi)``, disjoint from every other claim's.
    """

    interval: int
    agent_lo: int
    agent_hi: int
    hist: np.ndarray            # (agents, HISTOGRAM_BUCKETS) int64 counts
    elephant: np.ndarray        # (agents,) float64 weight lane
    mice: np.ndarray            # (agents,) float64 weight lane
    tracked: np.ndarray         # (agents,) int64
    shard_ids: np.ndarray       # (claims,) int64
    shard_agent_lo: np.ndarray  # (claims,) int64, absolute agent ids
    shard_agent_hi: np.ndarray
    flow_id_lo: np.ndarray      # (claims,) int64, half-open flow-id range
    flow_id_hi: np.ndarray

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


def _frozen(values) -> np.ndarray:
    """A read-only int64 array: every batch of a collector shares it."""
    array = np.array(values, dtype=np.int64)
    array.flags.writeable = False
    return array


class RangeCollector:
    """Collects agents ``[agent_lo, agent_hi)`` in one vectorised pass.

    Built once per ``(topology, traffic, range)``; :meth:`collect` may
    then be called for any interval, in any order.  The range need not
    be shard- or rack-aligned: a shard it covers partly is claimed for
    the covered agents only.
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
        self._tracked = _frozen(np.full(n, traffic.flows_per_agent))
        # One claim per shard the range touches.  The flow-id bounds
        # come from the flow-id column itself, not from slot
        # arithmetic, so a generator that broke disjointness would show.
        per_shard = topology.agents_per_shard
        shards = np.arange(agent_lo // per_shard, (agent_hi - 1) // per_shard + 1)
        lo = np.maximum(agent_lo, shards * per_shard)
        hi = np.minimum(agent_hi, (shards + 1) * per_shard)
        ids = self._slots.flow_ids
        self._claims = dict(
            shard_ids=_frozen(shards),
            shard_agent_lo=_frozen(lo),
            shard_agent_hi=_frozen(hi),
            flow_id_lo=_frozen(
                [ids[a - agent_lo : b - agent_lo].min() for a, b in zip(lo, hi)]
            ),
            flow_id_hi=_frozen(
                [ids[a - agent_lo : b - agent_lo].max() + 1 for a, b in zip(lo, hi)]
            ),
        )

    def collect(self, interval: int) -> RangeBatch:
        """The whole range's rows for ``interval``, as one batch."""
        likelihood, buckets = self._slots.at(interval)
        n = self.agent_hi - self.agent_lo
        # Row sums, not np.add.reduceat: a contiguous-row sum is
        # pairwise like from_columns' np.sum over the agent's slice,
        # reduceat adds left to right and drifts in the last bits.
        elephant = likelihood.sum(axis=1)
        # 1 - likelihood in place: the array is this call's own.
        mice = np.subtract(1.0, likelihood, out=likelihood).sum(axis=1)
        # from_columns' bincount, batched: (agent row × bucket) indices.
        hist = np.bincount(
            (self._row_offsets + buckets).ravel(),
            minlength=n * HISTOGRAM_BUCKETS,
        ).reshape(n, HISTOGRAM_BUCKETS)
        return RangeBatch(
            interval=interval,
            agent_lo=self.agent_lo,
            agent_hi=self.agent_hi,
            hist=hist,
            elephant=elephant,
            mice=mice,
            tracked=self._tracked,
            **self._claims,
        )
