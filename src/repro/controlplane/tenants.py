"""Per-tenant KL triggers over per-tenant FSD partitions.

The single-tenant :class:`repro.core.controller.ParaleonController`
keeps one previous network-wide FSD and fires one trigger.  At
multi-tenant scale that is exactly wrong: tenant A shifting its
traffic matrix must start *A's* retune without perturbing B's
histogram enough to fire B (tenants are strided rack partitions, so
their FSDs are disjoint by the dedup invariant — a shift in one
partition cannot leak mass into another).

:class:`TenantTriggerBank` holds the previous interval's FSD per
tenant and evaluates ``KL(R_t^k || R_{t-1}^k) > θ`` independently for
each tenant ``k``, emitting one ``controlplane.tenant_kl`` trace event
per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.monitor.fsd import FlowSizeDistribution, kl_divergence
from repro.telemetry import trace


@dataclass(frozen=True)
class TenantTrigger:
    """One fired trigger: tenant ``tenant`` shifted at ``interval``."""

    tenant: int
    interval: int
    kl: float
    theta: float


class TenantTriggerBank:
    """Independent ``KL > θ`` triggers, one per tenant partition."""

    def __init__(self, n_tenants: int, theta: float = 0.01):
        if n_tenants < 1:
            raise ValueError("need at least one tenant")
        if not 0.0 <= theta < math.inf:
            # ``kl > nan`` and ``kl > inf`` are never true: such a bank
            # could never fire.
            raise ValueError(f"theta must be finite and >= 0, got {theta!r}")
        self.n_tenants = n_tenants
        self.theta = theta
        self._previous: List[Optional[FlowSizeDistribution]] = (
            [None] * n_tenants
        )
        self.history: List[TenantTrigger] = []

    def observe(
        self,
        interval: int,
        tenant_fsds: Tuple[FlowSizeDistribution, ...],
    ) -> List[TenantTrigger]:
        """Compare each tenant's FSD to its own previous interval.

        Returns the triggers fired this interval (possibly several —
        tenants are independent).  The first interval never fires: with
        no previous distribution there is nothing to diverge from.
        """
        if len(tenant_fsds) != self.n_tenants:
            raise ValueError(
                f"got {len(tenant_fsds)} tenant FSDs, expected "
                f"{self.n_tenants}"
            )
        fired: List[TenantTrigger] = []
        for tenant, current in enumerate(tenant_fsds):
            previous = self._previous[tenant]
            if previous is not None:
                kl = kl_divergence(current, previous)
                triggered = kl > self.theta
                if trace.active:
                    trace.event(
                        "controlplane.tenant_kl",
                        {
                            "interval": interval,
                            "tenant": tenant,
                            "kl": kl,
                            "theta": self.theta,
                            "triggered": triggered,
                        },
                    )
                if triggered:
                    fired.append(
                        TenantTrigger(
                            tenant=tenant,
                            interval=interval,
                            kl=kl,
                            theta=self.theta,
                        )
                    )
            self._previous[tenant] = current
        self.history.extend(fired)
        return fired
