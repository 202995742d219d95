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

Paraleon's measurement hook is the ``measurement`` attribute: when set
(typically only on ToR switches), every data packet is offered to it on
ingress.  With ``dedup_marking`` enabled the switch honours the
TOS-bit protocol (Keypoint 1): insert only unmarked packets and mark
them, so each packet lands in exactly one sketch network-wide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.simulator.dcqcn import DcqcnParams, ecn_mark_probability
from repro.simulator.engine import Simulator
from repro.simulator.link import Link, QueuedEgress
from repro.simulator.packet import Packet, PacketKind
from repro.simulator.units import mb
from repro.telemetry.registry import get_registry

_OBS_FLUSHES = get_registry().counter(
    "repro_monitor_flushes_total",
    "Observation-buffer flushes into a batched measurement point",
)
_OBS_FULL_FLUSHES = get_registry().counter(
    "repro_monitor_flushes_full_total",
    "Observation-buffer flushes forced by the ring buffer filling",
)

_DATA = PacketKind.DATA  # module constant: enum member lookup is slow

#: Default observation buffer flush threshold (packets). 4096 packets is
#: ~6 MB of 1500 B traffic — far more than one 1 ms monitor interval
#: moves through a scaled-down ToR, so in steady state the buffer
#: flushes once per interval at ``SwitchAgent.collect()``.
OBS_BUFFER_CAPACITY = 4096


class MeasurementPoint(Protocol):
    """Anything that can observe packets at a switch (e.g. a sketch)."""

    def observe(self, flow_id: int, wire_bytes: int) -> None:  # pragma: no cover
        ...


@dataclass
class SwitchConfig:
    """Static switch provisioning (not tuned at runtime)."""

    buffer_bytes: int = mb(2.0)
    pfc_enabled: bool = True
    pfc_alpha: float = 1.0 / 8.0  # DT aggressiveness; paper uses 1/8
    ecn_enabled: bool = True

    def validate(self) -> None:
        if self.buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if self.pfc_alpha <= 0:
            raise ValueError("pfc_alpha must be positive")


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

        self.egress: List[QueuedEgress] = []
        # Per-port forwarding: dst host id -> list of candidate egress ports.
        self.forward_table: Dict[int, List[int]] = {}
        # Reverse wiring for PFC: ingress port -> (peer egress, prop delay).
        self.ingress_peer: Dict[int, Tuple[object, float]] = {}

        self.occupied_bytes = 0
        self.ingress_bytes: Dict[int, int] = {}
        self._upstream_paused: Dict[int, bool] = {}

        self.measurement: Optional[MeasurementPoint] = None
        self.dedup_marking = True

        # Batched observation buffer (off until an agent enables it):
        # two append-only columns accumulating (flow_id, wire_bytes)
        # per data packet, flushed into ``measurement.observe_batch``
        # when the capacity threshold is hit or at collect().  Plain
        # lists beat preallocated ndarrays here: a list append is a
        # fraction of a numpy item-store, and the flush converts the
        # whole column in one C pass.
        self._obs_flow: List[int] = []
        self._obs_bytes: List[int] = []
        self._obs_capacity = 0
        self._obs_batched = False
        self.obs_flushes = 0

        # Counters.
        self.rx_packets = 0
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
        self.egress.append(QueuedEgress(self.sim, link, self._account))
        self.ingress_bytes[port] = 0
        self._upstream_paused[port] = False
        return port

    def set_ingress_peer(self, port: int, peer_egress: object, prop_delay: float) -> None:
        """Record who to XOFF when ingress ``port`` congests."""
        self.ingress_peer[port] = (peer_egress, prop_delay)

    def set_forwarding(self, dst_host: int, ports: List[int]) -> None:
        if not ports:
            raise ValueError(f"no egress ports toward host {dst_host}")
        self.forward_table[dst_host] = list(ports)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, in_port: int) -> None:
        """Ingress processing: measure, route, admit, mark, enqueue, PFC."""
        self.rx_packets += 1
        packet.ttl -= 1
        if packet.ttl <= 0:
            self._drop(packet)
            return

        is_data = packet.kind == _DATA
        if is_data and self.measurement is not None:
            self._observe(packet)

        ports = self.forward_table.get(packet.dst)
        if ports is None:
            raise KeyError(
                f"{self.name}: no route to host {packet.dst} "
                f"(packet {packet!r})"
            )
        if len(ports) == 1:
            egress = self.egress[ports[0]]
        else:
            # ECMP: deterministic per-flow hash so a flow never reorders.
            h = (packet.flow_id * 2654435761 + packet.src * 40503 + packet.dst) & 0xFFFFFFFF
            egress = self.egress[ports[h % len(ports)]]

        # Shared-buffer admission.
        config = self.config
        size = packet.wire_size
        if self.occupied_bytes + size > config.buffer_bytes:
            self._drop(packet)
            return
        packet.ingress_port = in_port

        # ECN marking against the egress data-queue depth (CP role).
        if is_data and config.ecn_enabled:
            depth = egress.data_queue_bytes
            params = self.params
            if depth > params.k_min:  # at or below k_min the curve is 0
                prob = ecn_mark_probability(depth, params)
                if prob > 0.0 and self._rng.random() < prob:
                    packet.ecn = True
                    self.ecn_marked_packets += 1
            self.data_packets_forwarded += 1

        egress.enqueue(packet)
        self._account(packet, 1)

    def _observe(self, packet: Packet) -> None:
        if self.dedup_marking:
            if packet.sketch_marked:
                return
            packet.sketch_marked = True
        if self._obs_batched:
            # Append to the buffer; the sketch sees the packets in this
            # exact order at the next flush, so batched state is
            # bit-identical to per-packet insertion.
            buffered = self._obs_flow
            buffered.append(packet.flow_id)
            self._obs_bytes.append(packet.wire_size)
            if len(buffered) >= self._obs_capacity:
                _OBS_FULL_FLUSHES.inc()
                self.flush_observations()
        else:
            self.measurement.observe(packet.flow_id, packet.wire_size)

    # ------------------------------------------------------------------
    # Batched observation buffer (Paraleon agents opt in)
    # ------------------------------------------------------------------

    def enable_batched_observation(
        self, capacity: int = OBS_BUFFER_CAPACITY
    ) -> None:
        """Buffer data-packet observations and flush them in batches.

        Requires a ``measurement`` that implements ``observe_batch``
        (e.g. :class:`~repro.sketch.elastic.ElasticSketch`); scalar
        monitors such as NetFlow keep the per-packet ``observe`` path.
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.measurement is None or not hasattr(
            self.measurement, "observe_batch"
        ):
            raise ValueError(
                "batched observation needs a measurement point with "
                "observe_batch()"
            )
        self._obs_capacity = capacity
        self._obs_flow.clear()
        self._obs_bytes.clear()
        self._obs_batched = True

    @property
    def obs_buffered(self) -> int:
        """Observations currently waiting in the batch buffer."""
        return len(self._obs_flow)

    def flush_observations(self) -> int:
        """Drain the observation buffer into the measurement point.

        Returns the number of packets flushed.  Agents call this right
        before reading the sketch so the register state at read time is
        identical to the scalar per-packet path.
        """
        n = len(self._obs_flow)
        if n == 0:
            return 0
        flows = np.asarray(self._obs_flow, dtype=np.int64)
        nbytes = np.asarray(self._obs_bytes, dtype=np.int64)
        self._obs_flow.clear()
        self._obs_bytes.clear()
        self.measurement.observe_batch(flows, nbytes)
        self.obs_flushes += 1
        _OBS_FLUSHES.inc()
        return n

    def _drop(self, packet: Packet) -> None:
        self.dropped_packets += 1
        self.dropped_bytes += packet.wire_size
        packet.release()

    # ------------------------------------------------------------------
    # Buffer accounting and PFC (per-ingress-port dynamic threshold)
    # ------------------------------------------------------------------

    def _account(self, packet: Packet, sign: int = -1) -> None:
        """Charge or release a packet's bytes, then run the PFC check.

        ``sign=+1`` on admission; the default ``-1`` is the egress
        dequeue callback (serialization finished).  Either way the
        packet's ingress port is then held against the dynamic
        threshold: XOFF its upstream peer above ``pfc_alpha x free
        buffer``, XON once it is back under half of that.
        """
        delta = sign * packet.wire_size
        port = packet.ingress_port
        self.occupied_bytes += delta
        self.ingress_bytes[port] = buffered = self.ingress_bytes[port] + delta
        config = self.config
        peer = self.ingress_peer.get(port)
        if peer is None or not config.pfc_enabled:
            return
        free = config.buffer_bytes - self.occupied_bytes
        threshold = config.pfc_alpha * free if free > 0 else 0.0
        if self._upstream_paused[port]:
            if buffered <= threshold / 2.0:
                self._send_pfc(peer, port, paused=False)
        elif buffered > threshold:
            self._send_pfc(peer, port, paused=True)

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
        return sum(e.pause.paused_time_until_now() for e in self.egress)

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
