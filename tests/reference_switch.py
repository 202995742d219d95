"""Out-of-line reference for the switch's packet-hop events.

:class:`ReferenceSwitch` is the switch hop as it ran before its two
event bodies took the dynamic-threshold (DT) PFC rule in: the port
(:class:`ReferencePort`) finishes a packet, pushes its arrival and calls
its ``on_dequeue`` callback, :meth:`ReferenceSwitch.dequeued`, which
releases the packet's bytes and runs :meth:`ReferenceSwitch._pfc_check`;
``receive`` observes through :func:`observe` and runs the same
``_pfc_check`` after the charge.  The rule has one copy here, so it is
the oracle for the two written-out copies in
:class:`~repro.simulator.switch.Switch` and
:class:`~repro.simulator.switch.SwitchEgress`.

A fabric built on it (patch ``repro.simulator.network.Switch`` while
the :class:`~repro.simulator.network.Network` is built) must dispatch
the same events in the same ``(time, seq)`` order and hold the same
buffer, PFC and ECN state after every step as the shipped switch:
``tests/integration/test_switch_reference.py`` runs both in lockstep.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Callable, Optional

from repro.simulator.dcqcn import ecn_mark_probability
from repro.simulator.engine import Simulator
from repro.simulator.link import Link, PauseState
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.switch import Switch

_DATA = PacketKind.DATA


def observe(switch: Switch, packet: Packet) -> None:
    """A monitored switch's ingress observation of one data packet.

    Honour and set the TOS dedup mark, append the packet to the
    observation buffer and flush a full buffer.  Tests that feed a
    switch's buffer without running its datapath call this too.
    """
    if switch.dedup_marking:
        if packet.sketch_marked:
            return
        packet.sketch_marked = True
    switch._obs_flow.append(packet.flow_id)
    switch._obs_bytes.append(packet.wire_size)
    if len(switch._obs_flow) >= switch._obs_capacity:
        switch.flush_observations()


class ReferencePort:
    """Strict-priority control/data egress with a dequeue callback.

    The owner supplies ``on_dequeue`` for its buffer accounting;
    :meth:`enqueue` queues a packet and kicks an idle port, so a port
    also runs on its own (``on_dequeue=None``).
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
        self.control_queue: deque = deque()
        self.data_queue: deque = deque()
        self.data_queue_bytes = 0
        self.busy = False
        self.pause = PauseState(sim)

    def enqueue(self, packet: Packet) -> None:
        if packet.is_control:
            self.control_queue.append(packet)
        else:
            self.data_queue.append(packet)
            self.data_queue_bytes += packet.wire_size
        if not self.busy:
            self.transmit()

    def set_paused(self, paused: bool) -> None:
        changed = self.pause.set_paused(paused)
        if changed and not paused and not self.busy:
            self.transmit()

    def transmit(self, done: Optional[Packet] = None) -> None:
        """Finish ``done`` (its arrival, then ``on_dequeue``), then start
        the next packet; called with nothing, kick an idle port."""
        sim = self.sim
        now = sim.now
        if done is not None:
            link = self.link
            link.tx_bytes += done.wire_size
            link.tx_packets += 1
            _heappush(sim.heap, (
                now + link.prop_delay, sim.next_seq(),
                link.dst.receive, (done, link.dst_port),
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
        _heappush(sim.heap, (
            now + packet.wire_size * self.link.sec_per_byte, sim.next_seq(),
            self.transmit, (packet,),
        ))


class ReferenceSwitch(Switch):
    """The shipped switch with its hop's bookkeeping out of line."""

    def attach_link(self, link: Link) -> int:
        port = len(self.egress)
        self.egress.append(ReferencePort(self.sim, link, self.dequeued))
        self.ingress_bytes.append(0)
        self._upstream_paused.append(False)
        self.ingress_peer.append(None)
        return port

    def receive(self, packet: Packet, in_port: int) -> None:
        packet.ttl -= 1
        if packet.ttl <= 0:
            self._drop(packet)
            return
        is_data = packet.kind == _DATA
        if is_data and self.measurement is not None:
            observe(self, packet)
        routes = self.routes.get(packet.dst)
        if routes is None:
            raise KeyError(f"{self.name}: no route to host {packet.dst}")
        if len(routes) == 1:
            egress = routes[0]
        else:
            h = (packet.flow_id * 2654435761 + packet.src * 40503 + packet.dst) & 0xFFFFFFFF
            egress = routes[h % len(routes)]
        size = packet.wire_size
        if self.occupied_bytes + size > self._buffer_bytes:
            self._drop(packet)
            return
        packet.ingress_port = in_port
        if is_data and self._ecn_enabled:
            depth = egress.data_queue_bytes
            if depth > self.params.k_min:
                prob = ecn_mark_probability(depth, self.params)
                if prob > 0.0 and self._rng.random() < prob:
                    packet.ecn = True
                    self.ecn_marked_packets += 1
            self.data_packets_forwarded += 1
        egress.enqueue(packet)
        self.occupied_bytes += size
        self.ingress_bytes[in_port] += size
        if self._pfc_enabled:
            self._pfc_check(in_port, self.ingress_bytes[in_port])

    def dequeued(self, packet: Packet) -> None:
        """The port's dequeue callback: release, then the DT rule."""
        port = packet.ingress_port
        self.occupied_bytes -= packet.wire_size
        self.ingress_bytes[port] -= packet.wire_size
        if self._pfc_enabled:
            self._pfc_check(port, self.ingress_bytes[port])

    def _pfc_check(self, port: int, buffered: int) -> None:
        """XOFF ``port``'s upstream peer when ``buffered`` exceeds
        ``pfc_alpha x free buffer``, XON once it is back under half of
        that; an over-full buffer floors the threshold at 0."""
        peer = self.ingress_peer[port]
        if peer is None:
            return
        free = self._buffer_bytes - self.occupied_bytes
        threshold = self._pfc_alpha * free if free > 0 else 0.0
        if self._upstream_paused[port]:
            if buffered <= threshold / 2.0:
                self._send_pfc(peer, port, paused=False)
        elif buffered > threshold:
            self._send_pfc(peer, port, paused=True)
