"""Shard topology: agents → racks → pods → global, plus tenancy.

The sharded control plane places ``n_shards × agents_per_shard``
simulated ToR agents on a three-tier aggregation tree:

* **agent** — one ToR switch's control-plane agent (a local FSD per
  monitor interval, exactly like :class:`repro.monitor.agent.
  SwitchAgent` produces);
* **rack aggregator** — merges ``agents_per_rack`` consecutive agents;
* **pod aggregator** — merges ``racks_per_pod`` consecutive racks;
* **global controller** — merges the pods into the network-wide FSD.

All assignments are *contiguous index ranges* in one canonical agent
order (agent id ``0 .. n_agents-1``): agent ``a`` lives in rack
``a // agents_per_rack``, rack ``r`` lives in pod ``r // racks_per_pod``
and shard boundaries are contiguous too.  Contiguity is what lets the
hierarchical aggregator reduce whole tiers with ``np.add.reduceat``
over a single preallocated matrix instead of walking Python objects.

**Tenancy** is assigned per rack (``rack % n_tenants``): a tenant's
traffic spans many racks and pods, which is exactly the layout that
makes per-tenant FSD partitions non-trivial — they are strided index
sets over the canonical order, not contiguous slices.

The topology is a frozen dataclass so it can ride inside pickled shard
tasks unchanged; the derived index arrays are recomputed cheaply where
needed (they are ``arange`` views, not data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShardTopology:
    """Placement of agents onto shards, racks, pods and tenants."""

    n_shards: int = 4
    agents_per_shard: int = 32
    agents_per_rack: int = 16
    racks_per_pod: int = 4
    n_tenants: int = 2

    def __post_init__(self) -> None:
        if self.n_shards < 1 or self.agents_per_shard < 1:
            raise ValueError("need at least one shard and one agent per shard")
        if self.agents_per_rack < 1 or self.racks_per_pod < 1:
            raise ValueError("rack/pod fan-in must be >= 1")
        if self.n_tenants < 1:
            raise ValueError("need at least one tenant")
        if self.n_agents % self.agents_per_rack != 0:
            raise ValueError(
                f"{self.n_agents} agents do not fill whole racks of "
                f"{self.agents_per_rack}"
            )
        if self.n_racks % self.racks_per_pod != 0:
            raise ValueError(
                f"{self.n_racks} racks do not fill whole pods of "
                f"{self.racks_per_pod}"
            )
        if self.n_tenants > self.n_racks:
            # Tenancy is per rack: a tenant beyond the rack count would
            # own no agent, so its FSD stays empty and no shift of its
            # traffic could ever fire a trigger.
            raise ValueError(
                f"n_tenants {self.n_tenants} exceeds the {self.n_racks} "
                f"racks; a tenant must own at least one rack"
            )

    # -- sizes ---------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return self.n_shards * self.agents_per_shard

    @property
    def n_racks(self) -> int:
        return self.n_agents // self.agents_per_rack

    @property
    def n_pods(self) -> int:
        return self.n_racks // self.racks_per_pod

    # -- assignments ----------------------------------------------------

    def shard_bounds(self, shard_id: int) -> tuple:
        """``(agent_lo, agent_hi)`` half-open agent range of one shard."""
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"shard_id {shard_id} out of range")
        lo = shard_id * self.agents_per_shard
        return lo, lo + self.agents_per_shard

    def rack_of(self, agent_id: int) -> int:
        return agent_id // self.agents_per_rack

    def pod_of_rack(self, rack_id: int) -> int:
        return rack_id // self.racks_per_pod

    def tenant_of_rack(self, rack_id: int) -> int:
        return rack_id % self.n_tenants

    def tenant_of_agent(self, agent_id):
        """Tenant of one agent id, or elementwise of an array of them."""
        return self.tenant_of_rack(self.rack_of(agent_id))

    # -- tier index arrays (reduceat boundaries) -------------------------

    def rack_starts(self) -> np.ndarray:
        """Agent-row offsets where each rack begins (reduceat bounds)."""
        return np.arange(0, self.n_agents, self.agents_per_rack)

    def pod_starts(self) -> np.ndarray:
        """Rack-row offsets where each pod begins (reduceat bounds)."""
        return np.arange(0, self.n_racks, self.racks_per_pod)

    def tenant_agent_index(self, tenant: int) -> np.ndarray:
        """Canonical-order agent ids belonging to ``tenant`` (strided)."""
        if not 0 <= tenant < self.n_tenants:
            raise ValueError(f"tenant {tenant} out of range")
        agents = np.arange(self.n_agents)
        racks = agents // self.agents_per_rack
        return agents[racks % self.n_tenants == tenant]
