"""Shared-buffer output-queued switch with ECN marking and PFC.

The switch is the DCQCN *Congestion Point*: it RED-marks data packets
against its per-egress queue depth using the ``k_min``/``k_max``/
``p_max`` knobs of its :class:`~repro.simulator.dcqcn.DcqcnParams`.

Buffering follows the commodity shared-buffer model:

* All egress queues draw from one shared buffer pool.
* Per-*ingress-port* byte accounting drives PFC with the Dynamic
  Threshold (DT) algorithm: an ingress port whose buffered bytes
  exceed ``pfc_alpha × (buffer − occupied)`` sends XOFF to its
  upstream neighbour; XON is sent once occupancy falls below half the
  instantaneous threshold (hysteresis).  ``pfc_alpha = 1/8`` by
  default, matching the paper's discussion of PFC parameters.
* Packets that would overflow the shared buffer are dropped (PFC with
  sane headroom prevents this; tests assert losslessness).

A packet charges the buffer in :meth:`Switch.receive` and releases it
in :meth:`SwitchEgress.transmit` when its last bit leaves; each of the
two event bodies runs the DT rule itself, so neither calls out unless a
PFC signal is due.  ``tests/reference_switch.py`` keeps the rule out of
line, once, as the oracle both copies are held to.

Paraleon's measurement hook is the ``measurement`` attribute: when set
(typically only on ToR switches), every data packet is observed on
ingress.  With ``dedup_marking`` enabled the switch honours the
TOS-bit protocol (Keypoint 1): observe only unmarked packets and mark
them, so each packet lands in exactly one sketch network-wide.  An
observation is one ``(flow_id, wire_bytes)`` pair appended to the
switch's buffer; the buffer drains, in arrival order, through the
measurement point's ``observe_batch`` when it holds
``OBS_BUFFER_CAPACITY`` packets, and whenever an agent reads.  A lone
agent reads through :meth:`Switch.flush_observations`; a
:class:`~repro.monitor.agent.AgentStack` takes every member switch's
buffer (:meth:`Switch.take_observations`) and inserts them all with
one call of the stacked sketch kernel.  Either way the buffer is the
only observation path, whatever the measurement point.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import Deque, Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.simulator.dcqcn import DcqcnParams, ecn_mark_probability
from repro.simulator.engine import Simulator
from repro.simulator.link import Link, PauseState
from repro.simulator.ordered import ordered_sum
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.units import mb

_DATA = PacketKind.DATA  # module constant: enum member lookup is slow

#: Observation buffer flush threshold (packets), read when a switch is
#: built.  4096 packets is ~6 MB of 1500 B traffic — far more than one
#: 1 ms monitor interval moves through a scaled-down ToR, so in steady
#: state the buffer flushes once per interval, when the agent reads.
OBS_BUFFER_CAPACITY = 4096


class MeasurementPoint(Protocol):
    """Anything that can observe packets at a switch (e.g. a sketch)."""

    def observe_batch(
        self, flow_ids: np.ndarray, wire_bytes: np.ndarray
    ) -> None:  # pragma: no cover
        """Take aligned int64 columns of packets in arrival order."""
        ...


@dataclass(frozen=True)
class SwitchConfig:
    """Static switch provisioning (not tuned at runtime).

    Frozen: a switch reads it once, when it is built, and one
    ``NetworkConfig.switch`` object is shared by every switch of a
    fabric.
    """

    buffer_bytes: int = mb(2.0)
    pfc_enabled: bool = True
    pfc_alpha: float = 1.0 / 8.0  # DT aggressiveness; paper uses 1/8
    ecn_enabled: bool = True

    def validate(self) -> None:
        # NaN compares false both ways: a NaN buffer never drops and
        # a NaN alpha never pauses, so finiteness is checked first.
        for name in ("buffer_bytes", "pfc_alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"SwitchConfig.{name} must be finite and > 0, got {value!r}"
                )


class SwitchEgress:
    """A switch's egress port: strict-priority control/data queues.

    Only :meth:`Switch.attach_link` builds one.  Control packets are
    never paused; data packets are held while ``pause.paused`` is set.
    :meth:`Switch.receive` appends to the two queues itself and kicks
    an idle port; :meth:`transmit` serializes and releases.
    """

    def __init__(self, switch: "Switch", link: Link):
        sim = switch.sim
        self.sim = sim
        self.link = link
        self.switch = switch
        self.control_queue: Deque[Packet] = deque()
        self.data_queue: Deque[Packet] = deque()
        self.data_queue_bytes = 0
        self.busy = False
        self.pause = PauseState(sim)
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

    @property
    def queued_bytes(self) -> int:
        return self.data_queue_bytes + sum(p.wire_size for p in self.control_queue)

    def set_paused(self, paused: bool) -> None:
        changed = self.pause.set_paused(paused)
        if changed and not paused and not self.busy:
            self.transmit()

    def transmit(self, done: Optional[Packet] = None) -> None:
        """Finish ``done``, then put the next queued packet on the wire.

        ``done`` is the packet whose last bit just left: this method is
        the serialization-finish event it pushes for every packet.  It
        counts ``done`` on the link, pushes its arrival, releases its
        bytes from the switch's shared buffer and from the ingress port
        it was charged to, runs the DT rule (:class:`Switch`) for that
        port and starts the next serialization.  The pushes keep this
        order — the arrival, then any PFC signal, then the next finish
        — because it fixes their ``seq`` tie-break.  Called with
        nothing, it kicks an idle port.
        """
        now = self.sim.now
        heap = self._heap
        if done is not None:
            size = done.wire_size
            link = self.link
            link.tx_bytes += size
            link.tx_packets += 1
            _heappush(heap, (
                now + self._prop_delay, self._next_seq(),
                self._dst_receive, (done, self._dst_port),
            ))
            switch = self.switch
            port = done.ingress_port
            occupied = switch.occupied_bytes - size
            switch.occupied_bytes = occupied
            ingress = switch.ingress_bytes
            buffered = ingress[port] - size
            ingress[port] = buffered
            if switch._pfc_enabled:
                peer = switch.ingress_peer[port]
                if peer is not None:
                    free = switch._buffer_bytes - occupied
                    threshold = switch._pfc_alpha * free if free > 0 else 0.0
                    if switch._upstream_paused[port]:
                        if buffered <= threshold / 2.0:
                            switch._send_pfc(peer, port, False)
                    elif buffered > threshold:
                        switch._send_pfc(peer, port, True)
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


class Switch:
    """An output-queued shared-buffer switch."""

    def __init__(
        self,
        sim: Simulator,
        switch_id: int,
        name: str,
        config: SwitchConfig,
        params: DcqcnParams,
        seed: int = 0,
    ):
        config.validate()
        self.sim = sim
        self.switch_id = switch_id
        self.name = name
        self.config = config
        self.params = params
        self._rng = random.Random((seed << 16) ^ switch_id ^ 0x5A17C4)
        # Provisioning, read once (``SwitchConfig`` is frozen).
        self._buffer_bytes = config.buffer_bytes
        self._pfc_enabled = config.pfc_enabled
        self._pfc_alpha = config.pfc_alpha
        self._ecn_enabled = config.ecn_enabled

        self.egress: List[SwitchEgress] = []
        # Forwarding: dst host id -> the egress ports toward it (the
        # ECMP candidates, in port order).
        self.routes: Dict[int, Tuple[SwitchEgress, ...]] = {}

        # Per-port state, indexed by port (a port's ingress index is its
        # egress index): bytes buffered that entered on it, whether its
        # upstream peer is XOFFed, and that peer — ``(egress, prop
        # delay)``, None until wired.
        self.occupied_bytes = 0
        self.ingress_bytes: List[int] = []
        self._upstream_paused: List[bool] = []
        self.ingress_peer: List[Optional[Tuple[object, float]]] = []

        self.measurement: Optional[MeasurementPoint] = None
        self.dedup_marking = True

        # Observation buffer: two append-only columns accumulating
        # (flow_id, wire_bytes) per observed data packet, flushed into
        # ``measurement.observe_batch`` when the capacity threshold is
        # hit, and drained when an agent reads (an ``AgentStack`` takes
        # it for its one stacked insert).  Plain lists beat preallocated
        # ndarrays here: a list append is a fraction of a numpy
        # item-store, and the flush converts the whole column in one
        # C pass.
        self._obs_flow: List[int] = []
        self._obs_bytes: List[int] = []
        self._obs_capacity = OBS_BUFFER_CAPACITY
        self.obs_flushes = 0

        # Counters.
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.ecn_marked_packets = 0
        self.data_packets_forwarded = 0
        self.pfc_pauses_sent = 0

    # ------------------------------------------------------------------
    # Wiring (done by the topology builder)
    # ------------------------------------------------------------------

    def attach_link(self, link: Link) -> int:
        """Add an egress link; returns the new port index."""
        port = len(self.egress)
        self.egress.append(SwitchEgress(self, link))
        self.ingress_bytes.append(0)
        self._upstream_paused.append(False)
        self.ingress_peer.append(None)
        return port

    def set_ingress_peer(self, port: int, peer_egress: object, prop_delay: float) -> None:
        """Record who to XOFF when ingress ``port`` congests."""
        self.ingress_peer[port] = (peer_egress, prop_delay)

    def set_forwarding(self, dst_host: int, ports: List[int]) -> None:
        if not ports:
            raise ValueError(f"no egress ports toward host {dst_host}")
        self.routes[dst_host] = tuple(self.egress[port] for port in ports)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, in_port: int) -> None:
        """Ingress: measure, route, admit, mark, enqueue, charge, PFC.

        The observation, the egress enqueue, the buffer charge and the
        DT rule are written out here, so a packet that finds its egress
        busy costs this one frame; only an idle egress, an ECN coin
        above ``k_min``, a full observation buffer and a due PFC signal
        call out.
        """
        packet.ttl -= 1
        if packet.ttl <= 0:
            self._drop(packet)
            return

        is_data = packet.kind == _DATA
        if is_data and self.measurement is not None and not (
            self.dedup_marking and packet.sketch_marked
        ):
            if self.dedup_marking:
                packet.sketch_marked = True
            # The measurement point sees the packets in this exact
            # order at the next flush.
            observed = self._obs_flow
            observed.append(packet.flow_id)
            self._obs_bytes.append(packet.wire_size)
            if len(observed) >= self._obs_capacity:
                self.flush_observations()

        routes = self.routes.get(packet.dst)
        if routes is None:
            raise KeyError(
                f"{self.name}: no route to host {packet.dst} "
                f"(packet {packet!r})"
            )
        if len(routes) == 1:
            egress = routes[0]
        else:
            # ECMP: deterministic per-flow hash so a flow never reorders.
            h = (packet.flow_id * 2654435761 + packet.src * 40503 + packet.dst) & 0xFFFFFFFF
            egress = routes[h % len(routes)]

        # Shared-buffer admission.
        size = packet.wire_size
        occupied = self.occupied_bytes + size
        if occupied > self._buffer_bytes:
            self._drop(packet)
            return
        packet.ingress_port = in_port

        # ECN marking against the egress data-queue depth (CP role).
        if is_data and self._ecn_enabled:
            depth = egress.data_queue_bytes
            params = self.params
            if depth > params.k_min:  # at or below k_min the curve is 0
                prob = ecn_mark_probability(depth, params)
                if prob > 0.0 and self._rng.random() < prob:
                    packet.ecn = True
                    self.ecn_marked_packets += 1
            self.data_packets_forwarded += 1

        # Enqueue (control above data) and kick an idle egress.
        if packet.is_control:
            egress.control_queue.append(packet)
        else:
            egress.data_queue.append(packet)
            egress.data_queue_bytes += size
        if not egress.busy:
            egress.transmit()

        # Charge the shared buffer and the ingress port, then the DT
        # rule for that port (the release in ``SwitchEgress.transmit``
        # runs the same rule).
        self.occupied_bytes = occupied
        ingress = self.ingress_bytes
        buffered = ingress[in_port] + size
        ingress[in_port] = buffered
        if self._pfc_enabled:
            peer = self.ingress_peer[in_port]
            if peer is not None:
                free = self._buffer_bytes - occupied
                threshold = self._pfc_alpha * free if free > 0 else 0.0
                if self._upstream_paused[in_port]:
                    if buffered <= threshold / 2.0:
                        self._send_pfc(peer, in_port, False)
                elif buffered > threshold:
                    self._send_pfc(peer, in_port, True)

    # ------------------------------------------------------------------
    # Observation buffer
    # ------------------------------------------------------------------

    @property
    def obs_buffered(self) -> int:
        """Observations currently waiting in the batch buffer."""
        return len(self._obs_flow)

    def take_observations(self) -> Optional[Tuple[List[int], List[int]]]:
        """Empty the observation buffer and return it as ``(flow_ids,
        wire_bytes)`` lists in arrival order (``None`` if empty).

        The caller must hand them to this switch's measurement point
        before it reads; :meth:`flush_observations` does exactly that.
        """
        flows, nbytes = self._obs_flow, self._obs_bytes
        if not flows:
            return None
        self._obs_flow, self._obs_bytes = [], []
        self.obs_flushes += 1
        return flows, nbytes

    def flush_observations(self) -> int:
        """Drain the observation buffer into the measurement point.

        Returns the number of packets flushed.  Agents call this right
        before they read, so the measurement point has seen every
        packet of the interval, in arrival order.
        """
        taken = self.take_observations()
        if taken is None:
            return 0
        flows, nbytes = taken
        count = len(flows)
        self.measurement.observe_batch(
            np.fromiter(flows, dtype=np.int64, count=count),
            np.fromiter(nbytes, dtype=np.int64, count=count),
        )
        return count

    def _drop(self, packet: Packet) -> None:
        self.dropped_packets += 1
        self.dropped_bytes += packet.wire_size
        packet.release()

    # ------------------------------------------------------------------
    # PFC (per-ingress-port dynamic threshold)
    # ------------------------------------------------------------------

    def _send_pfc(self, peer: Tuple[object, float], port: int, paused: bool) -> None:
        peer_egress, prop_delay = peer
        self._upstream_paused[port] = paused
        if paused:
            self.pfc_pauses_sent += 1
        # PFC frames are tiny and ride the highest priority; model them
        # as a pure propagation-delay signal.
        self.sim.post(prop_delay, peer_egress.set_paused, paused)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_paused_time(self) -> float:
        """Cumulative time this switch's egress ports spent PFC-paused."""
        return ordered_sum(e.pause.paused_time_until_now() for e in self.egress)

    def queue_bytes(self, port: int) -> int:
        return self.egress[port].data_queue_bytes

    def telemetry_sample(self) -> dict:
        """Read-only counters for the flight recorder.

        ``queue_bytes`` is the deepest egress data backlog (the depth
        the ECN marker sees); the rest are cumulative since construction.
        """
        deepest = 0
        for egress in self.egress:
            depth = egress.data_queue_bytes
            if depth > deepest:
                deepest = depth
        return {
            "queue_bytes": deepest,
            "ecn_marked": self.ecn_marked_packets,
            "pfc_pauses": self.pfc_pauses_sent,
            "dropped": self.dropped_packets,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name}, ports={len(self.egress)})"
