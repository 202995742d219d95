"""Links and PFC pause bookkeeping.

A :class:`Link` is a unidirectional wire between two devices with a
fixed rate and propagation delay.  The *sending* side owns an egress
structure that serializes packets onto the link one at a time:

* :class:`~repro.simulator.switch.SwitchEgress` — a switch port: a
  two-level strict-priority queue (control above data) with PFC pause
  on the data level, which releases each finished packet from its
  switch's shared buffer.
* :class:`~repro.simulator.host.HostEgress` — the host's pull-based
  uplink serializer.

Both share the pause bookkeeping in :class:`PauseState`, count each
finished packet on the :class:`Link` and push a packet's two events
(serialization finish, then arrival one ``prop_delay`` later) straight
onto the engine's heap, per the direct-push contract in
:mod:`repro.simulator.engine`; the :class:`Link` checks here are what
keep those times from going back.

Packets of the same flow traverse a given link in FIFO order within
their priority level; the simulator never reorders same-priority
packets on a link.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.simulator.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.network import Device


class Link:
    """Unidirectional link descriptor and transfer counters.

    The egress on the sending side owns the serialization loop and,
    when a packet's last bit leaves, counts it here and pushes its
    arrival at ``dst`` one ``prop_delay`` later.
    """

    __slots__ = (
        "sim",
        "name",
        "src",
        "dst",
        "dst_port",
        "rate_bps",
        "prop_delay",
        "tx_bytes",
        "tx_packets",
        "sec_per_byte",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        src: "Device",
        dst: "Device",
        dst_port: int,
        rate_bps: float,
        prop_delay: float,
    ):
        # The egresses push event times computed from these two without
        # the engine's past-time check, so a NaN, an infinity or a
        # negative delay must stop here.
        if not (math.isfinite(rate_bps) and rate_bps > 0):
            raise ValueError(
                f"Link rate_bps must be finite and > 0, got {rate_bps!r}"
            )
        if not (math.isfinite(prop_delay) and prop_delay >= 0):
            raise ValueError(
                f"Link prop_delay must be finite and >= 0, got {prop_delay!r}"
            )
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.dst_port = dst_port
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.tx_bytes = 0
        self.tx_packets = 0
        # Serialization delay of a packet is ``wire_size * sec_per_byte``.
        self.sec_per_byte = 8.0 / rate_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.rate_bps / 1e9:.1f}Gbps, {self.prop_delay * 1e6:.1f}us)"


class PauseState:
    """PFC pause bookkeeping shared by switch and host egress.

    Tracks whether the data level is paused and accumulates total
    paused wall-time, which feeds the ``O_PFC`` term of the Paraleon
    utility function.
    """

    __slots__ = ("sim", "paused", "paused_since", "total_paused_time", "pause_events")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.paused = False
        self.paused_since = 0.0
        self.total_paused_time = 0.0
        self.pause_events = 0

    def set_paused(self, paused: bool) -> bool:
        """Update pause state; returns True if the state changed."""
        if paused == self.paused:
            return False
        if paused:
            self.paused_since = self.sim.now
            self.pause_events += 1
        else:
            self.total_paused_time += self.sim.now - self.paused_since
        self.paused = paused
        return True

    def paused_time_until_now(self) -> float:
        """Cumulative paused time including any in-progress pause."""
        total = self.total_paused_time
        if self.paused:
            total += self.sim.now - self.paused_since
        return total
