"""Observability: queue/rate sampling and flow event tracing.

The evaluation figures need time series beyond the per-interval
aggregates (queue depth at the congested port, per-QP rates during SA
rounds).  :class:`FabricTracer` samples those on a fixed period
without touching the datapath, and :class:`FlowEventLog` records flow
lifecycle events for post-run analysis — the moral equivalent of the
per-run traces an ns-3 campaign dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.simulator.network import Network


@dataclass(frozen=True)
class QueueSample:
    time: float
    switch: str
    port: int
    queue_bytes: int


@dataclass(frozen=True)
class RateSample:
    time: float
    host: int
    flow_id: int
    rate_bps: float


@dataclass(frozen=True)
class FlowEvent:
    time: float
    flow_id: int
    kind: str          # "start" | "complete"
    src: int
    dst: int
    size: int


class FabricTracer:
    """Periodic sampler of queue depths and QP rates."""

    def __init__(
        self,
        network: Network,
        period: float = 1e-3,
        max_samples: int = 200_000,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        self.network = network
        self.period = period
        self.max_samples = max_samples
        self.queue_samples: List[QueueSample] = []
        self.rate_samples: List[RateSample] = []
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.network.sim.post(self.period, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.network.sim.now
        if len(self.queue_samples) < self.max_samples:
            for switch in self.network.switches:
                for port, egress in enumerate(switch.egress):
                    if egress.data_queue_bytes > 0:
                        self.queue_samples.append(
                            QueueSample(
                                now, switch.name, port, egress.data_queue_bytes
                            )
                        )
        if len(self.rate_samples) < self.max_samples:
            for host in self.network.hosts:
                if host.egress is None:
                    continue
                for flow_id, qp in host.egress.qps.items():
                    self.rate_samples.append(
                        RateSample(now, host.host_id, flow_id, qp.rp.rc)
                    )
        self.network.sim.post(self.period, self._tick)

    # -- analysis helpers -------------------------------------------------

    def max_queue_bytes(self) -> int:
        if not self.queue_samples:
            return 0
        return max(sample.queue_bytes for sample in self.queue_samples)

    def queue_series(self, switch: str, port: int) -> List[Tuple[float, int]]:
        return [
            (sample.time, sample.queue_bytes)
            for sample in self.queue_samples
            if sample.switch == switch and sample.port == port
        ]

    def rate_series(self, flow_id: int) -> List[Tuple[float, float]]:
        return [
            (sample.time, sample.rate_bps)
            for sample in self.rate_samples
            if sample.flow_id == flow_id
        ]


class FlowEventLog:
    """Flow start/complete event recorder."""

    def __init__(self, network: Network):
        self.network = network
        self.events: List[FlowEvent] = []
        self._seen_started: set = set()
        network.on_flow_complete(self._on_complete)

    def poll_starts(self) -> None:
        """Record start events for flows created since the last poll."""
        for flow_id, flow in self.network.flows.items():
            if flow_id not in self._seen_started:
                self._seen_started.add(flow_id)
                self.events.append(
                    FlowEvent(
                        flow.start_time, flow_id, "start",
                        flow.src, flow.dst, flow.size,
                    )
                )

    def _on_complete(self, flow) -> None:
        self.events.append(
            FlowEvent(
                self.network.sim.now, flow.flow_id, "complete",
                flow.src, flow.dst, flow.size,
            )
        )

    def completions(self) -> List[FlowEvent]:
        return [e for e in self.events if e.kind == "complete"]

    def concurrent_flows(self, at_time: float) -> int:
        """How many flows were in flight at ``at_time``."""
        self.poll_starts()
        active = 0
        ends: Dict[int, float] = {
            e.flow_id: e.time for e in self.events if e.kind == "complete"
        }
        for event in self.events:
            if event.kind != "start" or event.time > at_time:
                continue
            end = ends.get(event.flow_id)
            if end is None or end >= at_time:
                active += 1
        return active
