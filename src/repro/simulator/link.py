"""Links and egress ports.

A :class:`Link` is a unidirectional wire between two devices with a
fixed rate and propagation delay.  The *sending* side owns an egress
structure that serializes packets onto the link one at a time:

* :class:`QueuedEgress` — used by switches: a two-level strict-priority
  queue (control above data) with PFC pause on the data level and a
  dequeue callback so the owning switch can run buffer accounting.
* Hosts implement their own pull-based egress (see
  :mod:`repro.simulator.host`) but reuse :class:`Link` for delivery and
  the shared pause bookkeeping in :class:`PauseState`.

Both egresses push a packet's two events (serialization finish, then
arrival one ``prop_delay`` later) straight onto the engine's heap, per
the direct-push contract in :mod:`repro.simulator.engine`; the
:class:`Link` checks here are what keep those times from going back.

Packets of the same flow traverse a given link in FIFO order within
their priority level; the simulator never reorders same-priority
packets on a link.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush as _heappush
from typing import Callable, Optional, TYPE_CHECKING

from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet

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

    __slots__ = ("sim", "paused", "_paused_since", "total_paused_time", "pause_events")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.paused = False
        self._paused_since = 0.0
        self.total_paused_time = 0.0
        self.pause_events = 0

    def set_paused(self, paused: bool) -> bool:
        """Update pause state; returns True if the state changed."""
        if paused == self.paused:
            return False
        if paused:
            self._paused_since = self.sim.now
            self.pause_events += 1
        else:
            self.total_paused_time += self.sim.now - self._paused_since
        self.paused = paused
        return True

    def paused_time_until_now(self) -> float:
        """Cumulative paused time including any in-progress pause."""
        total = self.total_paused_time
        if self.paused:
            total += self.sim.now - self._paused_since
        return total


class QueuedEgress:
    """Egress port with strict-priority control/data queues (switches).

    The owning switch supplies ``on_dequeue`` for shared-buffer and PFC
    accounting.  Control packets are never paused; data packets are
    held while ``pause.paused`` is set.  :class:`~repro.simulator.
    switch.Switch` appends to the two queues itself (its ``receive``
    is one frame); :meth:`enqueue` is the same step for a port used on
    its own.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        on_dequeue: Optional[Callable[[Packet], None]] = None,
    ):
        self.sim = sim
        self.link = link
        self.on_dequeue = on_dequeue
        self.control_queue: deque[Packet] = deque()
        self.data_queue: deque[Packet] = deque()
        self.data_queue_bytes = 0
        self.busy = False
        self.pause = PauseState(sim)
        # Running maxima/counters for stats.
        self.max_data_queue_bytes = 0
        # Bound once for the two heap pushes per packet: the calendar
        # and its counter (the engine's direct-push contract), the far
        # end of the wire, and this port's own finish callback.
        self._heap = sim.heap
        self._next_seq = sim.next_seq
        self._sec_per_byte = link.sec_per_byte
        self._prop_delay = link.prop_delay
        self._dst_receive = link.dst.receive
        self._dst_port = link.dst_port
        self._transmit = self.transmit

    # -- queue state -------------------------------------------------

    @property
    def queued_bytes(self) -> int:
        return self.data_queue_bytes + sum(p.wire_size for p in self.control_queue)

    def enqueue(self, packet: Packet) -> None:
        """Queue a packet and kick the serializer if idle."""
        if packet.is_control:
            self.control_queue.append(packet)
        else:
            self.data_queue.append(packet)
            self.data_queue_bytes += packet.wire_size
            if self.data_queue_bytes > self.max_data_queue_bytes:
                self.max_data_queue_bytes = self.data_queue_bytes
        if not self.busy:
            self.transmit()

    # -- PFC ----------------------------------------------------------

    def set_paused(self, paused: bool) -> None:
        changed = self.pause.set_paused(paused)
        if changed and not paused and not self.busy:
            self.transmit()

    # -- serialization loop -------------------------------------------

    def transmit(self, done: Optional[Packet] = None) -> None:
        """Finish ``done``, then put the next queued packet on the wire.

        ``done`` is the packet whose last bit just left: this method is
        the serialization-finish event it pushes for every packet.
        Called with nothing, it kicks an idle port.  The pushes keep
        this order — ``done``'s arrival, then whatever ``on_dequeue``
        signals (PFC), then the next finish — because it fixes their
        ``seq`` tie-break.
        """
        now = self.sim.now
        heap = self._heap
        if done is not None:
            link = self.link
            link.tx_bytes += done.wire_size
            link.tx_packets += 1
            _heappush(heap, (
                now + self._prop_delay, self._next_seq(),
                self._dst_receive, (done, self._dst_port),
            ))
            if self.on_dequeue is not None:
                self.on_dequeue(done)
        if self.control_queue:
            packet = self.control_queue.popleft()
        elif self.data_queue and not self.pause.paused:
            packet = self.data_queue.popleft()
            self.data_queue_bytes -= packet.wire_size
        else:
            self.busy = False
            return
        self.busy = True
        _heappush(heap, (
            now + packet.wire_size * self._sec_per_byte, self._next_seq(),
            self._transmit, (packet,),
        ))
