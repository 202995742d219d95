"""Two-tier CLOS (leaf-spine) topology builder.

The paper's simulations use a two-tier CLOS of 8 ToR switches, 4 leaf
(spine) switches and 128 servers at 4:1 oversubscription; the testbed
uses 8 ToR / 4 leaf / 32 servers at 1:1.  :class:`ClosSpec` captures
that family: ``hosts_per_tor`` hosts attach to each of ``n_tor`` ToR
switches, and every ToR connects to every one of ``n_spine`` spine
switches.

Host ids are dense integers ``0 .. n_hosts-1`` laid out ToR-major, so
``tor_of(h) == h // hosts_per_tor``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

from repro.simulator.ordered import ordered_sum
from repro.simulator.units import CONTROL_PACKET_BYTES, gbps, us


@dataclass(frozen=True)
class ClosSpec:
    """Shape and link provisioning of a two-tier CLOS fabric."""

    n_tor: int = 4
    n_spine: int = 2
    hosts_per_tor: int = 4
    host_rate_bps: float = gbps(10.0)
    uplink_rate_bps: float = gbps(10.0)
    prop_delay_s: float = us(5.0)

    def __post_init__(self) -> None:
        # NaN compares false both ways, so each check is written to
        # pass only on a good value: a NaN rate or delay would
        # otherwise build a fabric whose events never come due.
        for name in ("n_tor", "n_spine", "hosts_per_tor"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"ClosSpec.{name} must be an int >= 1, got {value!r}")
        for name in ("host_rate_bps", "uplink_rate_bps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"ClosSpec.{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.prop_delay_s) and self.prop_delay_s >= 0):
            raise ValueError(
                f"ClosSpec.prop_delay_s must be finite and >= 0, got {self.prop_delay_s!r}"
            )

    @property
    def n_hosts(self) -> int:
        return self.n_tor * self.hosts_per_tor

    @property
    def n_switches(self) -> int:
        return self.n_tor + self.n_spine

    @property
    def oversubscription(self) -> float:
        """Downlink to uplink capacity ratio at a ToR."""
        down = self.hosts_per_tor * self.host_rate_bps
        up = self.n_spine * self.uplink_rate_bps
        return down / up

    def tor_of(self, host_id: int) -> int:
        if not 0 <= host_id < self.n_hosts:
            raise ValueError(f"host id {host_id} out of range")
        return host_id // self.hosts_per_tor

    def hosts_of_tor(self, tor: int) -> List[int]:
        if not 0 <= tor < self.n_tor:
            raise ValueError(f"tor id {tor} out of range")
        base = tor * self.hosts_per_tor
        return list(range(base, base + self.hosts_per_tor))

    def path_hops(self, src: int, dst: int) -> int:
        """Switch hops on the forwarding path between two hosts."""
        src_tor, dst_tor = self.tor_of(src), self.tor_of(dst)
        if src == dst:
            return 0
        if src_tor == dst_tor:
            return 1  # ToR only
        return 3  # ToR -> spine -> ToR

    @cached_property
    def base_rtts(self) -> Dict[int, float]:
        """Zero-queue round-trip time by hop class (a fabric constant).

        Propagation on every traversed link in both directions plus a
        probe's serialization on each forward link, doubled for the
        same-size ack.  The forward path starts on the source's host
        link and ends on the destination's; only the links in between
        run at the uplink rate.  This is the normalization denominator
        used for ``O_RTT`` (the paper's Swift-style *base path delay*,
        taken round-trip), keyed by the hop count a probe carries.
        """
        bits = CONTROL_PACKET_BYTES * 8.0
        base = {}
        for hops in (0, 1, 3):  # loopback, same ToR, via a spine
            links_one_way = hops + 1
            prop = 2.0 * links_one_way * self.prop_delay_s
            rates = [self.host_rate_bps]
            if hops:
                rates += [self.uplink_rate_bps] * (hops - 1) + [self.host_rate_bps]
            ser = ordered_sum(bits / rate for rate in rates)
            base[hops] = prop + 2.0 * ser
        return base

    def base_rtt(self, src: int, dst: int) -> float:
        """Zero-queue round-trip time between two hosts (see :attr:`base_rtts`)."""
        return self.base_rtts[self.path_hops(src, dst)]


# Canonical topologies from the paper -------------------------------------


#: Named scale classes used across the benchmark suite (see DESIGN.md
#: §5 for the scale-down policy).  Lives here — not in the experiments
#: layer — because the simulator's own fluid surrogate keys off these
#: shapes; :mod:`repro.experiments.scenarios` re-exports it.
SPECS = {
    "small": ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=4),
    "medium": ClosSpec(n_tor=4, n_spine=2, hosts_per_tor=4),
    "large": ClosSpec(n_tor=8, n_spine=4, hosts_per_tor=4),
    # The testbed analogue: 1:1 oversubscription, shorter wires.
    "testbed": ClosSpec(
        n_tor=4,
        n_spine=4,
        hosts_per_tor=4,
        host_rate_bps=gbps(10.0),
        uplink_rate_bps=gbps(10.0),
        prop_delay_s=us(2.0),
    ),
}


def paper_simulation_spec(scale: float = 1.0) -> ClosSpec:
    """The NS3 evaluation fabric (Section IV-B), optionally scaled down.

    The paper uses 8 ToR / 4 leaf / 128 servers, 100 Gbps everywhere,
    4:1 oversubscription, 5 us propagation delay.  ``scale`` < 1 shrinks
    host count and link rate together so queueing dynamics in BDP units
    are preserved while pure-Python event counts stay tractable.
    """
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    hosts_per_tor = max(2, round(16 * scale))
    rate = gbps(max(1.0, 100.0 * scale))
    return ClosSpec(
        n_tor=8,
        n_spine=4,
        hosts_per_tor=hosts_per_tor,
        host_rate_bps=rate,
        uplink_rate_bps=rate,
        prop_delay_s=us(5.0),
    )


def paper_testbed_spec(scale: float = 1.0) -> ClosSpec:
    """The hardware testbed fabric (Section IV-C), optionally scaled.

    8 ToR / 4 leaf / 32 H100 servers, 400 Gbps links, 1:1
    oversubscription (modelled with proportionally faster uplinks).
    """
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    hosts_per_tor = max(2, round(4 * scale))
    rate = gbps(max(1.0, 400.0 * scale))
    return ClosSpec(
        n_tor=8,
        n_spine=4,
        hosts_per_tor=hosts_per_tor,
        host_rate_bps=rate,
        uplink_rate_bps=rate * hosts_per_tor / 4.0,
        prop_delay_s=us(2.0),
    )


class ClosTopology:
    """Concrete adjacency derived from a :class:`ClosSpec`.

    Pure data — the :class:`~repro.simulator.network.Network` turns it
    into devices and links.  Kept separate so tests can reason about
    routing without instantiating a simulator.
    """

    def __init__(self, spec: ClosSpec):
        self.spec = spec

    # Device naming --------------------------------------------------------

    def tor_name(self, tor: int) -> str:
        return f"tor{tor}"

    def spine_name(self, spine: int) -> str:
        return f"spine{spine}"

    def host_name(self, host: int) -> str:
        return f"h{host}"

    # Switch id layout: ToRs first, then spines.

    def tor_switch_id(self, tor: int) -> int:
        return tor

    def spine_switch_id(self, spine: int) -> int:
        return self.spec.n_tor + spine

    def is_tor(self, switch_id: int) -> bool:
        return switch_id < self.spec.n_tor
