"""Hybrid flow/packet engine: fluid elephants over packet-level mice.

The pure DES charges one event per packet per hop, so long-lived
elephants — which carry most bytes but need the least per-packet
fidelity — dominate the heap.  This module moves them to a flow-level
fast path built from the same DCQCN fluid equations the surrogate
integrates (:func:`repro.simulator.fluid.fluid_rate_step`), while
mice, queue occupancy, ECN marking of packet traffic, and PFC stay at
packet level.

Engine modes are an argument of each build — ``NetworkConfig.
hybrid_engine``, ``EvalTask.engine_mode``, ``--hybrid-engine`` on
``run``/``compare`` — never process state; unset means ``off``:

* ``off`` — pure DES.  Digest-identical to the seed behaviour; the
  default, and what Tier-1 and the eval cache run against.
* ``hybrid`` — the fluid fast path for flows at or above
  ``elephant_threshold``; mice stay on the scalar packet-level
  :class:`~repro.simulator.dcqcn.DcqcnRp`.  Approximate: utilities
  must land within the committed band, digests are *not* comparable.

There is deliberately no vectorized-timer mode between the two: the
engine's ``coalesce_at`` already coalesces same-deadline RP timers in
scalar form, and a numpy timer bank measured 0.72-0.74x of ``off``
against it (DESIGN.md §11).

Sync-point model: every ``sync_interval`` the fluid plane integrates
its lanes (internally sub-stepped at the surrogate's ``DEFAULT_DT``
for Euler stability) and then *publishes* into the packet world —
per-edge virtual queue depths onto each traversed
:class:`~repro.simulator.link.QueuedEgress` (``virtual_bytes``, which
the switch adds to its ECN marking depth so packet-level mice see the
elephants' load), transmitted bytes onto host egress counters and the
stats collector (so ``O_TP`` and the oracle FSD see fluid traffic),
and synthetic RTT probe samples along fluid paths (so ``O_RTT``
reflects fluid queueing).  PFC for fluid flows is approximated by
capacity capping — fluid senders never emit XOFF, which is the main
documented fidelity gap of ``hybrid`` mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.simulator.engine import EventHandle
from repro.simulator.fluid import (
    DEFAULT_DT,
    _param_arrays,
    fluid_rate_cols,
    fluid_rate_step,
)
from repro.simulator.flow import Flow
from repro.simulator.units import HEADER_BYTES, mb, us
from repro.telemetry import trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.network import Network

#: Recognized engine modes, least to most approximate.
HYBRID_MODES = ("off", "hybrid")


def resolve_hybrid_mode(mode: Optional[str] = None) -> str:
    """The validated engine mode; unset means ``off``."""
    if mode is None:
        return "off"
    if mode not in HYBRID_MODES:
        raise ValueError(
            f"hybrid engine mode must be one of {HYBRID_MODES}, got {mode!r}"
        )
    return mode


@dataclass(frozen=True)
class HybridConfig:
    """Static configuration of the fluid fast path."""

    #: Interval between fluid->packet sync points.  One engine event
    #: per interval replaces ~BDP packet events per elephant.
    sync_interval: float = us(50.0)
    #: Flows at/above this size take the fluid path in ``hybrid`` mode.
    elephant_threshold: int = mb(1.0)

    def validate(self) -> None:
        if self.sync_interval <= 0:
            raise ValueError("sync_interval must be positive")
        if self.elephant_threshold <= 0:
            raise ValueError("elephant_threshold must be positive")


class _Edge:
    """One traversed egress: capacity plus (for switch ports) the
    virtual queue the fluid plane publishes into ECN marking."""

    __slots__ = ("egress", "capacity", "switch", "vq", "buffer_bytes")

    def __init__(self, egress, capacity: float, switch=None):
        self.egress = egress
        self.capacity = capacity
        self.switch = switch          # None for host uplinks (no marking)
        self.vq = 0.0                 # virtual queue depth (bytes)
        self.buffer_bytes = (
            float(switch.config.buffer_bytes) if switch is not None else 0.0
        )


class FluidFlowLanes:
    """Flow-level fast path: elephants as DCQCN fluid lanes.

    One lane per active fluid flow; per-lane rate state advances with
    :func:`fluid_rate_step` against ECN marking probabilities computed
    from the *combined* (packet + virtual) depth of every switch egress
    the flow traverses, using each owner switch's live parameters — so
    controller dispatches steer fluid flows exactly like packet flows.
    """

    def __init__(self, network: "Network", config: Optional[HybridConfig] = None):
        self.network = network
        self.config = config or HybridConfig()
        self.config.validate()
        self.sim = network.sim

        # Per-lane state (parallel arrays; order = insertion).
        self._flows: List[Flow] = []
        self.rc = np.zeros(0)
        self.rt = np.zeros(0)
        self.alpha = np.zeros(0)
        self.byte_stage = np.zeros(0)
        self.time_stage = np.zeros(0)
        self.incr_iter = np.zeros(0)
        self.line_rate = np.zeros(0)
        self._wire_f = np.zeros(0)        # cumulative wire bytes (float)
        self._sent_f = np.zeros(0)        # cumulative payload bytes (float)
        self._wire_int: List[int] = []    # wire bytes already published
        self._sent_int: List[int] = []    # payload bytes already published

        # Edge registry and flattened flow->edge incidence.
        self._edges: List[_Edge] = []
        self._edge_of: Dict[int, int] = {}      # id(egress) -> edge index
        self._flow_edges: List[List[int]] = []  # per lane, edge indices
        self._use_flow = np.zeros(0, dtype=np.intp)   # flattened incidence
        self._use_edge = np.zeros(0, dtype=np.intp)
        self._topo_dirty = True
        # Static per-edge columns, rebuilt only on topology changes;
        # the sync loop must not rebuild arrays per step.
        self._cap = np.zeros(0)
        self._markable = np.zeros(0, dtype=bool)
        self._buffer_cap = np.zeros(0)
        self._vq = np.zeros(0)
        self._size_arr = np.zeros(0)
        self._mark_key = None
        self._mark_cols = None

        self._event: Optional[EventHandle] = None
        self._last_sync = 0.0
        self._cols_key = None
        self._cols = None

        # Synthetic probe plane (dedicated RNG: fluid sampling must not
        # perturb the network RNG that ``off`` digests depend on).
        self._probe_rng = random.Random(
            (network.config.seed << 8) ^ 0x9E3779B1
        )
        self._last_probe = 0.0
        # (src, dst) -> (edge indices, base_rtt, hops); topology-static.
        self._probe_cache: Dict[tuple, tuple] = {}

        # Diagnostics.
        self.syncs = 0
        self.fluid_flows_total = 0
        self.fluid_bytes_total = 0

    # ------------------------------------------------------------------
    # Path resolution (mirrors Switch._route's ECMP hash)
    # ------------------------------------------------------------------

    def _edge_index(self, egress, capacity: float, switch=None) -> int:
        key = id(egress)
        idx = self._edge_of.get(key)
        if idx is None:
            idx = len(self._edges)
            self._edges.append(_Edge(egress, capacity, switch))
            self._edge_of[key] = idx
            # New edges appear mid-run (probe paths, late flows); the
            # static per-edge columns must be rebuilt before next use.
            self._topo_dirty = True
        return idx

    @staticmethod
    def _ecmp_pick(flow_id: int, src: int, dst: int, n_ports: int) -> int:
        h = (flow_id * 2654435761 + src * 40503 + dst) & 0xFFFFFFFF
        return h % n_ports

    def _path_edges(self, flow_id: int, src: int, dst: int) -> List[int]:
        """Edge indices a flow traverses, source uplink included."""
        net = self.network
        spec = net.spec
        host = net.hosts[src]
        edges = [self._edge_index(host.egress, host.line_rate)]
        tor_s = net.tors[spec.tor_of(src)]
        ports = tor_s.forward_table[dst]
        if len(ports) == 1:
            port = ports[0]
            edges.append(
                self._edge_index(
                    tor_s.egress[port], tor_s.egress[port].link.rate_bps, tor_s
                )
            )
            return edges
        k = self._ecmp_pick(flow_id, src, dst, len(ports))
        port = ports[k]
        edges.append(
            self._edge_index(
                tor_s.egress[port], tor_s.egress[port].link.rate_bps, tor_s
            )
        )
        # Uplink port lists are built in spine order, so position k IS
        # the spine index (see Network._build_forwarding).
        spine = net.spines[k]
        sport = spine.forward_table[dst][0]
        edges.append(
            self._edge_index(
                spine.egress[sport], spine.egress[sport].link.rate_bps, spine
            )
        )
        tor_d = net.tors[spec.tor_of(dst)]
        dport = tor_d.forward_table[dst][0]
        edges.append(
            self._edge_index(
                tor_d.egress[dport], tor_d.egress[dport].link.rate_bps, tor_d
            )
        )
        return edges

    # ------------------------------------------------------------------
    # Lane lifecycle
    # ------------------------------------------------------------------

    @property
    def n_lanes(self) -> int:
        return len(self._flows)

    def qp_sample(self) -> dict:
        """Aggregate rate/alpha state over fluid lanes (read-only).

        Fluid lanes react to an ECN-marking *probability* rather than
        discrete CNP packets, so the CNP count is always zero here.
        """
        n = len(self._flows)
        if n == 0:
            return {
                "n": 0, "rate_sum": 0.0, "rate_min": 0.0,
                "alpha_sum": 0.0, "alpha_max": 0.0, "cnps": 0,
            }
        return {
            "n": n,
            "rate_sum": float(self.rc.sum()),
            "rate_min": float(self.rc.min()),
            "alpha_sum": float(self.alpha.sum()),
            "alpha_max": float(self.alpha.max()),
            "cnps": 0,
        }

    def add_flow(self, flow: Flow) -> None:
        """Admit a flow to the fluid plane (starts transmitting now)."""
        host = self.network.hosts[flow.src]
        params = host.params
        self._flows.append(flow)
        self.rc = np.append(self.rc, host.line_rate)
        self.rt = np.append(self.rt, host.line_rate)
        self.alpha = np.append(self.alpha, params.initial_alpha)
        self.byte_stage = np.append(self.byte_stage, 0.0)
        self.time_stage = np.append(self.time_stage, 0.0)
        self.incr_iter = np.append(self.incr_iter, 0.0)
        self.line_rate = np.append(self.line_rate, host.line_rate)
        self._wire_f = np.append(self._wire_f, 0.0)
        self._sent_f = np.append(self._sent_f, 0.0)
        self._wire_int.append(0)
        self._sent_int.append(0)
        self._flow_edges.append(
            self._path_edges(flow.flow_id, flow.src, flow.dst)
        )
        self._topo_dirty = True
        self.fluid_flows_total += 1
        if self._event is None:
            self._last_sync = self.sim.now
            self._event = self.sim.schedule(
                self.config.sync_interval, self._sync
            )

    def _compact(self, keep: np.ndarray) -> None:
        """Drop completed lanes (boolean keep mask, order-preserving)."""
        self._flows = [f for f, k in zip(self._flows, keep) if k]
        for name in (
            "rc", "rt", "alpha", "byte_stage", "time_stage", "incr_iter",
            "line_rate", "_wire_f", "_sent_f",
        ):
            setattr(self, name, getattr(self, name)[keep])
        self._wire_int = [v for v, k in zip(self._wire_int, keep) if k]
        self._sent_int = [v for v, k in zip(self._sent_int, keep) if k]
        self._flow_edges = [e for e, k in zip(self._flow_edges, keep) if k]
        self._topo_dirty = True

    def _rebuild_topology(self) -> None:
        pairs = [
            (lane, edge)
            for lane, edges in enumerate(self._flow_edges)
            for edge in edges
        ]
        if pairs:
            self._use_flow = np.array([p[0] for p in pairs], dtype=np.intp)
            self._use_edge = np.array([p[1] for p in pairs], dtype=np.intp)
        else:
            self._use_flow = np.zeros(0, dtype=np.intp)
            self._use_edge = np.zeros(0, dtype=np.intp)
        self._cap = np.array([e.capacity for e in self._edges])
        self._markable = np.array([e.switch is not None for e in self._edges])
        self._buffer_cap = np.array([e.buffer_bytes for e in self._edges])
        self._size_arr = np.array([float(f.size) for f in self._flows])
        n_edges = len(self._edges)
        if self._vq.size < n_edges:
            self._vq = np.concatenate(
                [self._vq, np.zeros(n_edges - self._vq.size)]
            )
        self._topo_dirty = False

    def _marking_cols(self):
        """Per-edge ECN columns from each owner switch's live params."""
        key = tuple(
            id(e.switch.params) if e.switch else None for e in self._edges
        )
        if key != self._mark_key:
            k_min = np.array(
                [e.switch.params.k_min if e.switch else 0.0 for e in self._edges]
            )
            k_max = np.array(
                [e.switch.params.k_max if e.switch else 1.0 for e in self._edges]
            )
            p_max = np.array(
                [e.switch.params.p_max if e.switch else 0.0 for e in self._edges]
            )
            k_span = np.maximum(k_max - k_min, 1.0)
            self._mark_cols = (k_min, k_max, k_span, p_max)
            self._mark_key = key
        return self._mark_cols

    def _param_cols(self, dt: float) -> dict:
        """Per-lane DCQCN parameter columns, cached by identity.

        Hosts swap their ``params`` *object* on dispatch, so the tuple
        of object ids is a correct cache key for the derived columns.
        """
        key = (
            dt,
            tuple(id(self.network.hosts[f.src].params) for f in self._flows),
        )
        if key != self._cols_key:
            p = _param_arrays(
                [self.network.hosts[f.src].params for f in self._flows]
            )
            self._cols = fluid_rate_cols(p, dt)
            self._cols_key = key
        return self._cols

    # ------------------------------------------------------------------
    # The sync point
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        self._event = None
        now = self.sim.now
        window = now - self._last_sync
        self._last_sync = now
        n = len(self._flows)
        if n == 0 or window <= 0.0:
            return
        self.syncs += 1
        if self._topo_dirty:
            self._rebuild_topology()

        n_sub = max(1, int(round(window / DEFAULT_DT)))
        dt = window / n_sub
        dt8 = dt / 8.0
        cols = self._param_cols(dt)
        n_edges = len(self._edges)
        cap = self._cap
        markable = self._markable
        buffer_cap = self._buffer_cap
        vq = self._vq[:n_edges]
        k_min, k_max, k_span, p_max = self._marking_cols()
        # Packet-level data queue depth is frozen for the window: no
        # packet events run between our sub-steps.  Host uplinks are
        # pull-paced (no queue) and never mark.
        pkt_q = np.array(
            [
                float(e.egress.data_queue_bytes) if e.switch is not None else 0.0
                for e in self._edges
            ]
        )

        mtu = self.network.config.mtu
        payload_frac = mtu / float(mtu + HEADER_BYTES)
        mtu_bits = (mtu + HEADER_BYTES) * 8.0
        use_flow, use_edge = self._use_flow, self._use_edge

        wire_before = self._wire_f.copy()
        # Scratch buffers reused across sub-steps (``.at`` accumulators
        # must be re-filled, not re-allocated, each iteration).
        escape = np.empty(n)
        share = np.empty(n)
        for _ in range(n_sub):
            # Aggregate offered load per edge.
            demand = np.bincount(
                use_edge, weights=self.rc[use_flow], minlength=n_edges
            )

            # Virtual queues integrate the overload on switch edges.
            # (min/max ufuncs instead of np.clip: identical values,
            # no dispatch wrapper — this runs tens of thousands of
            # times per simulated second.)
            vq = np.where(
                markable,
                np.minimum(
                    np.maximum(vq + (demand - cap) * dt8, 0.0), buffer_cap
                ),
                0.0,
            )

            # ECN marking at the combined packet+virtual depth.
            depth = pkt_q + vq
            edge_p = (
                np.minimum(np.maximum((depth - k_min) / k_span, 0.0), 1.0)
                * p_max
            )
            edge_p = np.where(depth >= k_max, 1.0, edge_p)
            # A packet escapes unmarked only if every hop declines.
            escape.fill(1.0)
            np.multiply.at(escape, use_flow, 1.0 - edge_p[use_edge])
            mark_p = 1.0 - escape

            # Capacity sharing: each flow sends at most its fair share
            # of every traversed edge (PFC approximated by this cap).
            edge_share = np.minimum(1.0, cap / np.maximum(demand, 1e-9))
            share.fill(1.0)
            np.minimum.at(share, use_flow, edge_share[use_edge])

            (
                self.rc, self.rt, self.alpha,
                self.byte_stage, self.time_stage, self.incr_iter,
            ) = fluid_rate_step(
                self.rc, self.rt, self.alpha,
                self.byte_stage, self.time_stage, self.incr_iter,
                mark_p, self.line_rate, dt, mtu_bits, cols,
            )

            self._wire_f = self._wire_f + self.rc * share * dt8

        # -- publish into the packet world -----------------------------
        self._vq[:n_edges] = vq
        for idx, e in enumerate(self._edges):
            q = vq[idx]
            e.vq = q
            e.egress.virtual_bytes = int(q)

        sent_f = np.minimum(
            self._sent_f + (self._wire_f - wire_before) * payload_frac,
            self._size_arr,
        )
        self._sent_f = sent_f

        stats = self.network.stats
        sync_bytes = 0
        done = np.zeros(n, dtype=bool)
        for i, flow in enumerate(self._flows):
            new_sent = int(sent_f[i])
            delta = new_sent - self._sent_int[i]
            if delta > 0:
                self._sent_int[i] = new_sent
                flow.bytes_sent = new_sent
                flow.bytes_received = new_sent
                stats.record_flow_bytes(flow.flow_id, delta)
                self.network.hosts[flow.dst].rx_bytes += delta
                sync_bytes += delta
            new_wire = int(self._wire_f[i])
            wire_delta = new_wire - self._wire_int[i]
            if wire_delta > 0:
                self._wire_int[i] = new_wire
                self.network.hosts[flow.src].egress.data_tx_bytes += wire_delta
            if sent_f[i] >= flow.size:
                flow.bytes_sent = flow.size
                flow.bytes_received = flow.size
                done[i] = True
        self.fluid_bytes_total += sync_bytes

        self._emit_probes(now, vq, cap)

        if trace.active:
            trace.event(
                "engine.hybrid",
                {
                    "t": round(now, 9),
                    "fluid_flows": n,
                    "fluid_bytes": sync_bytes,
                    "virtual_queue_max": int(vq.max()) if n_edges else 0,
                },
            )

        if done.any():
            finished = [f for f, d in zip(self._flows, done) if d]
            self._compact(~done)
            # Completion callbacks may add new flows (ON-OFF rounds),
            # which re-arms the sync event via add_flow.
            for flow in finished:
                self.network._complete_flow(flow)

        if self._flows and self._event is None:
            self._event = self.sim.schedule(
                self.config.sync_interval, self._sync
            )
        elif not self._flows:
            # Idle plane: retract the published load.
            for e in self._edges:
                e.vq = 0.0
                e.egress.virtual_bytes = 0

    # ------------------------------------------------------------------
    # Synthetic RTT probes
    # ------------------------------------------------------------------

    def _emit_probes(self, now: float, vq: np.ndarray, cap: np.ndarray) -> None:
        """Emulate the DES prober for fluid-only senders.

        Hosts whose only traffic is fluid have no QPs, so the packet
        prober skips them and ``O_RTT`` would read an idle network.
        Instead, sample the same peer distribution and charge each
        forward hop its combined queueing delay.
        """
        interval = self.network.config.probe_interval
        if not self.network.config.probing_enabled:
            return
        if now - self._last_probe < interval - 1e-12:
            return
        self._last_probe = now
        spec = self.network.spec
        n_hosts = spec.n_hosts
        senders = sorted(
            {f.src for f in self._flows},
        )
        for src in senders:
            host = self.network.hosts[src]
            if host.active_qp_count() > 0:
                continue  # the packet prober already covers this host
            peer = self._probe_rng.randrange(n_hosts - 1)
            if peer >= src:
                peer += 1
            path, base, hops = self._probe_path(src, peer)
            rtt = base
            for edge_idx in path:
                edge = self._edges[edge_idx]
                depth = edge.egress.data_queue_bytes + edge.vq
                rtt += depth * 8.0 / edge.capacity
            self.network.stats.record_rtt(src, peer, rtt, hops)

    def _probe_path(self, src: int, dst: int):
        """Forward path of a probe (flow id -1, like the DES prober).

        Cached: paths, base RTTs and hop counts are topology-static.
        Host uplinks are excluded (pull-paced, no queue to charge).
        """
        cached = self._probe_cache.get((src, dst))
        if cached is None:
            spec = self.network.spec
            edges = [
                idx
                for idx in self._path_edges(-1, src, dst)
                if self._edges[idx].switch is not None
            ]
            cached = (
                edges, spec.base_rtt(src, dst), spec.path_hops(src, dst)
            )
            self._probe_cache[(src, dst)] = cached
        return cached
