"""Network: devices, links, routing, flows and metric plumbing.

This is the top of the simulator substrate: it instantiates hosts and
switches from a :class:`~repro.simulator.topology.ClosSpec`, wires the
bidirectional links (including the reverse-direction PFC peering),
installs forwarding tables, runs the RTT prober, tracks flows from
start to completion, and exposes the parameter-dispatch operations the
tuners use (:meth:`set_all_params`, :meth:`set_switch_ecn`).  A fabric
is configured by its :class:`NetworkConfig` alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Union

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.engine import Simulator
from repro.simulator.flow import Flow, FlowRecord
from repro.simulator.host import Host, HostConfig
from repro.simulator.link import Link
from repro.simulator.packet import Packet
from repro.simulator.stats import StatsCollector
from repro.simulator.switch import Switch, SwitchConfig
from repro.simulator.topology import ClosSpec, ClosTopology
from repro.simulator.units import DEFAULT_MTU, us


class Device(Protocol):
    """Anything packets can be delivered to."""

    def receive(self, packet: Packet, in_port: int) -> None:  # pragma: no cover
        ...


@dataclass
class NetworkConfig:
    """Everything needed to stand up a simulated fabric."""

    spec: ClosSpec = field(default_factory=ClosSpec)
    params: DcqcnParams = field(default_factory=DcqcnParams)
    switch: SwitchConfig = field(default_factory=SwitchConfig)
    mtu: int = DEFAULT_MTU
    seed: int = 1
    # RTT probing: every interval each host probes one random peer.
    probe_interval: float = us(100.0)
    probing_enabled: bool = True
    # Congestion control run by the RNICs: "dcqcn" (default, tunable by
    # Paraleon) or "swift" (delay-based, Section VI related work).
    cc: str = "dcqcn"
    swift_params: object = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ValueError, naming the field, on a fabric that cannot run.

        A zero or NaN ``probe_interval`` would re-post the probe tick
        at the same instant forever; the spec validates itself when
        built, the switch and DCQCN settings here.
        """
        if not (math.isfinite(self.probe_interval) and self.probe_interval > 0):
            raise ValueError(
                f"NetworkConfig.probe_interval must be finite and > 0, "
                f"got {self.probe_interval!r}"
            )
        if not (math.isfinite(self.mtu) and self.mtu > 0):
            raise ValueError(f"NetworkConfig.mtu must be finite and > 0, got {self.mtu!r}")
        self.switch.validate()
        self.params.validate()


class Network:
    """A running simulated RDMA fabric."""

    def __init__(self, config: Optional[NetworkConfig] = None):
        self.config = config or NetworkConfig()
        self.config.validate()  # again: a config's fields may be reassigned
        self.spec = self.config.spec
        self.topology = ClosTopology(self.spec)
        self.sim = Simulator()
        self._rng = random.Random(self.config.seed)

        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self.tors: List[Switch] = []
        self.spines: List[Switch] = []

        self.flows: Dict[int, Flow] = {}
        self.active_flows: Dict[int, Flow] = {}
        self.records: List[FlowRecord] = []
        self._next_flow_id = 0
        self._completion_callbacks: List[Callable[[Flow], None]] = []

        self._build_devices()
        self._build_links()
        self._build_forwarding()

        self.stats = StatsCollector(self)
        for host in self.hosts:
            host.track_flows(self.flows, self.stats, self._flow_done)
            host.on_rtt_sample = self.stats.record_rtt

        if self.config.probing_enabled:
            self.sim.post(self.config.probe_interval, self._probe_tick)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_devices(self) -> None:
        spec, topo, cfg = self.spec, self.topology, self.config
        for h in range(spec.n_hosts):
            self.hosts.append(
                Host(
                    self.sim,
                    h,
                    topo.host_name(h),
                    cfg.params,
                    HostConfig(mtu=cfg.mtu),
                    cc_mode=cfg.cc,
                    swift_params=cfg.swift_params,
                )
            )
        for t in range(spec.n_tor):
            switch = Switch(
                self.sim,
                topo.tor_switch_id(t),
                topo.tor_name(t),
                cfg.switch,
                cfg.params,
                seed=cfg.seed,
            )
            self.switches.append(switch)
            self.tors.append(switch)
        for s in range(spec.n_spine):
            switch = Switch(
                self.sim,
                topo.spine_switch_id(s),
                topo.spine_name(s),
                cfg.switch,
                cfg.params,
                seed=cfg.seed,
            )
            self.switches.append(switch)
            self.spines.append(switch)

    def _connect(
        self,
        dev_a: Union[Host, Switch],
        dev_b: Union[Host, Switch],
        rate: float,
        delay: float,
        name_a: str,
        name_b: str,
    ) -> tuple:
        """Create the bidirectional link pair and PFC peering."""
        # Reserve port indices first: egress port index on each device
        # doubles as the ingress index for the reverse direction.
        port_a = len(dev_a.egress) if isinstance(dev_a, Switch) else 0
        port_b = len(dev_b.egress) if isinstance(dev_b, Switch) else 0
        link_ab = Link(self.sim, f"{name_a}->{name_b}", dev_a, dev_b, port_b, rate, delay)
        link_ba = Link(self.sim, f"{name_b}->{name_a}", dev_b, dev_a, port_a, rate, delay)
        dev_a.attach_link(link_ab)
        dev_b.attach_link(link_ba)
        egress_a = dev_a.egress[port_a] if isinstance(dev_a, Switch) else dev_a.egress
        egress_b = dev_b.egress[port_b] if isinstance(dev_b, Switch) else dev_b.egress
        if isinstance(dev_a, Switch):
            dev_a.set_ingress_peer(port_a, egress_b, delay)
        if isinstance(dev_b, Switch):
            dev_b.set_ingress_peer(port_b, egress_a, delay)
        return port_a, port_b

    def _build_links(self) -> None:
        spec, topo = self.spec, self.topology
        # host <-> ToR
        self._tor_host_port: Dict[int, int] = {}  # host id -> port on its ToR
        for h in range(spec.n_hosts):
            tor = self.tors[spec.tor_of(h)]
            host = self.hosts[h]
            _, tor_port = self._connect(
                host,
                tor,
                spec.host_rate_bps,
                spec.prop_delay_s,
                host.name,
                tor.name,
            )
            self._tor_host_port[h] = tor_port
        # ToR <-> spine (full bipartite)
        self._tor_spine_port: Dict[tuple, int] = {}   # (tor, spine) -> tor port
        self._spine_tor_port: Dict[tuple, int] = {}   # (spine, tor) -> spine port
        for t in range(spec.n_tor):
            for s in range(spec.n_spine):
                tor_port, spine_port = self._connect(
                    self.tors[t],
                    self.spines[s],
                    spec.uplink_rate_bps,
                    spec.prop_delay_s,
                    topo.tor_name(t),
                    topo.spine_name(s),
                )
                self._tor_spine_port[(t, s)] = tor_port
                self._spine_tor_port[(s, t)] = spine_port

    def _build_forwarding(self) -> None:
        spec = self.spec
        for t in range(spec.n_tor):
            tor = self.tors[t]
            uplinks = [self._tor_spine_port[(t, s)] for s in range(spec.n_spine)]
            for h in range(spec.n_hosts):
                if spec.tor_of(h) == t:
                    tor.set_forwarding(h, [self._tor_host_port[h]])
                else:
                    tor.set_forwarding(h, uplinks)
        for s in range(spec.n_spine):
            spine = self.spines[s]
            for h in range(spec.n_hosts):
                spine.set_forwarding(h, [self._spine_tor_port[(s, spec.tor_of(h))]])

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------

    def add_flow(
        self, src: int, dst: int, size: int, start_time: float, tag: str = ""
    ) -> Flow:
        """Register a flow; transmission begins at ``start_time``."""
        flow = Flow(
            flow_id=self._next_flow_id,
            src=src,
            dst=dst,
            size=size,
            start_time=start_time,
            tag=tag,
        )
        self._next_flow_id += 1
        self.flows[flow.flow_id] = flow
        self.active_flows[flow.flow_id] = flow
        self.sim.post_at(start_time, self.hosts[src].start_flow, flow)
        return flow

    def on_flow_complete(self, callback: Callable[[Flow], None]) -> None:
        """Register a completion callback (used by ON-OFF workloads)."""
        self._completion_callbacks.append(callback)

    def _flow_done(self, flow: Flow) -> None:
        """The destination host has received all of ``flow``'s bytes."""
        flow.finish_time = self.sim.now
        self.active_flows.pop(flow.flow_id, None)
        self.records.append(FlowRecord.from_flow(flow))
        self.stats.record_flow_complete()
        for callback in self._completion_callbacks:
            callback(flow)

    # ------------------------------------------------------------------
    # Parameter dispatch (what the controller does over gRPC in the paper)
    # ------------------------------------------------------------------

    def set_all_params(self, params: DcqcnParams) -> None:
        """Apply a full DCQCN setting (frozen, so shared) to every device."""
        params.validate()
        for host in self.hosts:
            host.params = params
        for switch in self.switches:
            switch.params = params

    def set_switch_ecn(
        self, switch: Switch, k_min: int, k_max: int, p_max: float
    ) -> None:
        """Per-switch ECN threshold update (used by the ACC baseline)."""
        switch.params = switch.params.copy(k_min=k_min, k_max=k_max, p_max=p_max)
        switch.params.validate()

    def current_params(self) -> DcqcnParams:
        """The parameter set currently installed on host 0."""
        return self.hosts[0].params

    # ------------------------------------------------------------------
    # RTT probing
    # ------------------------------------------------------------------

    def _probe_tick(self) -> None:
        n = self.spec.n_hosts
        for host in self.hosts:
            # Only probe from hosts that are actually sending: idle
            # pairs would dilute O_RTT toward 1 regardless of tuning.
            if host.active_qp_count() == 0:
                continue
            peer = self._rng.randrange(n - 1)
            if peer >= host.host_id:
                peer += 1
            host.send_probe(peer)
        self.sim.post(self.config.probe_interval, self._probe_tick)

    # ------------------------------------------------------------------
    # Execution and global accounting
    # ------------------------------------------------------------------

    def run_until(self, end_time: float) -> int:
        return self.sim.run_until(end_time)

    def total_dropped_packets(self) -> int:
        return sum(s.dropped_packets for s in self.switches)

    def total_ecn_marked(self) -> int:
        return sum(s.ecn_marked_packets for s in self.switches)

    def total_pfc_pauses(self) -> int:
        return sum(s.pfc_pauses_sent for s in self.switches)

    def completed_flow_count(self) -> int:
        return len(self.records)

    def qp_sample(self) -> dict:
        """Aggregate DCQCN state across every host's active QPs (read-only)."""
        sample = {
            "n": 0, "rate_sum": 0.0, "rate_min": 0.0,
            "alpha_sum": 0.0, "alpha_max": 0.0, "cnps": 0,
        }
        for host in self.hosts:
            part = host.qp_sample()
            if part["n"]:
                sample["rate_min"] = (
                    min(sample["rate_min"], part["rate_min"])
                    if sample["n"] else part["rate_min"]
                )
                sample["n"] += part["n"]
                sample["rate_sum"] += part["rate_sum"]
                sample["alpha_sum"] += part["alpha_sum"]
                sample["alpha_max"] = max(sample["alpha_max"], part["alpha_max"])
                sample["cnps"] += part["cnps"]
        return sample

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(hosts={len(self.hosts)}, switches={len(self.switches)}, "
            f"flows={len(self.flows)})"
        )
