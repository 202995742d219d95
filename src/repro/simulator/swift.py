"""Swift-style RTT-based congestion control (related-work substrate).

Section VI notes that TIMELY and Swift replace DCQCN's ECN signal with
RTT measurements, and that Paraleon's monitoring-tuning philosophy
applies to them as well.  This module provides a rate-based Swift-like
reaction point so the fabric can run delay-based CC end to end:

* the receiver ACKs every data packet on the control class, echoing
  the sender's transmit timestamp;
* the sender compares the measured delay against ``target_delay``
  (optionally scaled per hop, Swift's topology-aware target);
* below target → additive increase once per RTT; above target →
  multiplicative decrease proportional to the overshoot, capped by
  ``max_mdf`` and applied at most once per RTT.

The per-QP surface matches :class:`~repro.simulator.dcqcn.DcqcnRp`
(``rc``, ``start``/``stop``, ``on_packet_sent``, ``on_cnp``,
``on_ack``), so hosts can run either controller via
``NetworkConfig.cc``.  Swift ignores CNPs (ECN plays no role).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.simulator.engine import Simulator
from repro.simulator.units import mbps, us


@dataclass
class SwiftParams:
    """Swift knobs at the 10 Gbps reference fabric."""

    base_target_delay: float = us(50.0)   # fabric base target (s)
    hop_scaling: float = us(5.0)          # extra target per hop (s)
    ai_rate: float = mbps(100.0)          # additive increase per RTT (bps)
    beta: float = 0.8                     # MD responsiveness
    max_mdf: float = 0.5                  # max fractional cut per RTT
    min_rate: float = mbps(10.0)

    def validate(self) -> None:
        if self.base_target_delay <= 0:
            raise ValueError("base_target_delay must be positive")
        if self.hop_scaling < 0:
            raise ValueError("hop_scaling must be >= 0")
        if self.ai_rate <= 0:
            raise ValueError("ai_rate must be positive")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if not 0.0 < self.max_mdf < 1.0:
            raise ValueError("max_mdf must be in (0, 1)")
        if self.min_rate <= 0:
            raise ValueError("min_rate must be positive")

    def target_for_hops(self, hops: int) -> float:
        return self.base_target_delay + self.hop_scaling * max(hops, 0)


class SwiftCc:
    """Rate-based Swift reaction point for one sender QP."""

    def __init__(
        self,
        sim: Simulator,
        line_rate_bps: float,
        params_ref: Callable[[], SwiftParams],
        on_rate_change: Optional[Callable[[], None]] = None,
    ):
        self.sim = sim
        self.line_rate = line_rate_bps
        self.params_ref = params_ref
        self.on_rate_change = on_rate_change

        self.rc = line_rate_bps
        self._active = False
        self._last_increase = -float("inf")
        self._last_decrease = -float("inf")
        self._smoothed_rtt: Optional[float] = None

        self.acks_received = 0
        self.increases = 0
        self.decreases = 0

    # -- lifecycle (same surface as DcqcnRp) -----------------------------

    def start(self) -> None:
        self._active = True

    def stop(self) -> None:
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def on_packet_sent(self, wire_bytes: int) -> float:
        """Swift needs no byte counter; returns the rate to pace from."""
        return self.rc

    def on_cnp(self) -> None:
        """ECN plays no role in delay-based CC."""

    # -- the delay control law --------------------------------------------

    def on_ack(self, delay: float, hops: int = 3) -> None:
        """React to one ACK carrying the measured one-way delay."""
        if not self._active or delay <= 0:
            return
        self.acks_received += 1
        params = self.params_ref()
        if self._smoothed_rtt is None:
            self._smoothed_rtt = delay
        else:
            self._smoothed_rtt = 0.875 * self._smoothed_rtt + 0.125 * delay
        target = params.target_for_hops(hops)
        now = self.sim.now
        pacing_gap = max(self._smoothed_rtt, 1e-9)

        if delay <= target:
            if now - self._last_increase >= pacing_gap:
                self.rc = min(self.rc + params.ai_rate, self.line_rate)
                self._last_increase = now
                self.increases += 1
                if self.on_rate_change is not None:
                    self.on_rate_change()
        else:
            if now - self._last_decrease >= pacing_gap:
                overshoot = (delay - target) / delay
                factor = max(1.0 - params.beta * overshoot, 1.0 - params.max_mdf)
                self.rc = max(self.rc * factor, params.min_rate)
                self._last_decrease = now
                self.decreases += 1
                if self.on_rate_change is not None:
                    self.on_rate_change()
