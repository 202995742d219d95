"""Switch control-plane agents.

Each ToR switch runs an agent that owns the local measurement
structure and, once per monitor interval, turns raw data-plane state
into a local flow-size distribution for the controller:

* :class:`SwitchAgent` — the full Paraleon pipeline: Elastic Sketch in
  the data plane, read-and-reset each interval, sliding-window ternary
  state update in the control plane (Keypoint 2), TOS-dedup insertion
  (Keypoint 1, enforced by the switch datapath).  An
  :class:`AgentStack` runs N of them as one table, which is how
  :class:`~repro.monitor.aggregate.FsdAggregator` collects them.
* :class:`NaiveSketchAgent` — ablation: same sketch, but the naive
  single-interval elephant rule and no control-plane state.
* :class:`NetFlowAgent` — commodity baseline: 1:100 sampling with an
  O(seconds) export interval.

The three differ only in what they measure and how they classify.  All
of them take packets through the switch's observation buffer, flush it
before they read, and build their FSDs with the one columnar kernel
(:func:`~repro.monitor.fsd.group_distributions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.monitor.fsd import FlowSizeDistribution, group_distributions
from repro.monitor.states import ColumnarSlidingWindowClassifier
from repro.telemetry import trace
from repro.simulator.switch import Switch
from repro.simulator.units import mb
from repro.sketch.elastic import ElasticSketch, ElasticSketchConfig, ElasticStack
from repro.sketch.netflow import NetFlowConfig, NetFlowMonitor

@dataclass
class LocalReport:
    """What one switch uploads to the controller each interval."""

    switch_name: str
    fsd: FlowSizeDistribution
    tracked_flows: int
    interval_bytes: int

    def payload_bytes(self) -> int:
        """Approximate on-the-wire size (Table IV accounting).

        FSD size bins (4 B each) + elephant/mice weights (2 × 8 B) +
        header; per-flow state records are summarized, not shipped —
        matching the paper's ~520 B switch→controller transfer.  The
        bin count follows the FSD actually carried, so distributions
        built with custom bucketing are costed correctly.
        """
        return len(self.fsd.histogram) * 4 + 2 * 8 + 16


def _trace_report(report: LocalReport) -> LocalReport:
    """Emit the per-switch upload record when tracing is on."""
    if trace.active:
        trace.event(
            "monitor.report",
            {
                "switch": report.switch_name,
                "tracked_flows": report.tracked_flows,
                "interval_bytes": report.interval_bytes,
                "payload_bytes": report.payload_bytes(),
                "total_flows": report.fsd.total_flows,
            },
        )
    return report


class SwitchAgent:
    """Paraleon agent: Elastic Sketch + sliding-window ternary states.

    The whole interval runs columnar: the switch buffers observations
    and flushes them through the sketch's batch kernel, the sketch is
    read and reset as flat arrays, flow states advance with masked
    numpy ops, and one kernel sums the FSD.  Reports and run digests
    are bit-identical to the per-packet, per-flow reference pipeline in
    ``tests/scalar_monitor.py`` (``test_reports_bit_identical_across_modes``).

    The agent is always a member of an :class:`AgentStack` — alone
    until an :class:`~repro.monitor.aggregate.FsdAggregator` stacks it
    with its peers — and :meth:`collect` is that stack's pass with one
    member.
    """

    def __init__(
        self,
        switch: Switch,
        sketch_config: Optional[ElasticSketchConfig] = None,
        tau: int = mb(1.0),
        delta: int = 3,
        dedup_marking: bool = True,
    ):
        self.switch = switch
        self.sketch = ElasticSketch(
            sketch_config
            or ElasticSketchConfig(seed=switch.switch_id)
        )
        self.classifier = ColumnarSlidingWindowClassifier(
            tau=tau, delta=delta, key_span=self.sketch.config.heavy_buckets
        )
        self.tau = tau
        switch.measurement = self.sketch
        switch.dedup_marking = dedup_marking
        self.reports_made = 0
        self._group = 0
        self._stack = AgentStack([self])

    def stack_key(self) -> Tuple:
        """Agents with equal keys can share one :class:`AgentStack`."""
        config = self.sketch.config
        return (
            config.heavy_buckets,
            config.light_depth,
            config.light_width,
            config.ostracism_lambda,
            self.tau,
            self.classifier.delta,
        )

    def collect(self, now: float) -> LocalReport:
        """One monitor interval: read+reset sketch, update states."""
        stack = self._stack
        if len(stack.agents) > 1:
            raise RuntimeError(
                f"{self.switch.name} is collected with its "
                f"{len(stack.agents) - 1} peers by AgentStack.collect()"
            )
        return stack.collect(now)[0]


class AgentStack:
    """N :class:`SwitchAgent` s collected as one table.

    Construction moves the agents' sketch registers into one
    :class:`~repro.sketch.elastic.ElasticStack` and their flow tables
    into one bucket-keyed classifier, group ``i`` for ``agents[i]``;
    every agent's ``classifier`` becomes that shared table.  A switch
    whose buffer fills mid-interval still flushes into its own sketch.
    :meth:`collect` then closes the interval for all N with one insert
    of every member switch's buffered packets, one read-and-reset, one
    classifier pass and one FSD pass, and returns the reports each
    agent would have made alone.
    """

    def __init__(self, agents: Sequence[SwitchAgent]):
        self.agents: List[SwitchAgent] = list(agents)
        if not self.agents:
            raise ValueError("need at least one agent")
        if len({agent.stack_key() for agent in self.agents}) != 1:
            raise ValueError("stacked agents differ in sketch shape, tau or delta")
        self.tau = self.agents[0].tau
        # τ as the FSD pass divides by it: a float64 0-d operand.
        self._tau = np.array(float(self.tau))
        lone = self.agents[0] if len(self.agents) == 1 else None
        if lone is not None and lone.sketch.stack.sketches == [lone.sketch]:
            # A sketch alone in its stack already has this stack's table.
            self.sketches = lone.sketch.stack
        else:
            self.sketches = ElasticStack([agent.sketch for agent in self.agents])
        if lone is not None and lone.classifier._ends.size == 1:
            # Likewise a one-group flow table.
            self.classifier = lone.classifier
        else:
            self.classifier = ColumnarSlidingWindowClassifier.stacked(
                [(agent.classifier, agent._group) for agent in self.agents]
            )
        for group, agent in enumerate(self.agents):
            agent.classifier = self.classifier
            agent._group = group
            agent._stack = self

    def collect(self, now: float) -> List[LocalReport]:
        """One monitor interval for every member, in member order."""
        return self.collect_merged(now)[0]

    def collect_merged(
        self, now: float
    ) -> Tuple[List[LocalReport], FlowSizeDistribution]:
        """:meth:`collect`, plus the merge of every member's FSD from
        the same pass: bit for bit what
        :func:`~repro.monitor.fsd.merge_distributions` makes of the
        reports, with the stack's own flow-state columns."""
        for agent in self.agents:
            if agent._stack is not self:
                raise RuntimeError("an agent of this stack has joined another stack")
        # Every member switch's buffer, as one batch.
        flows, nbytes, runs = [], [], []
        for slot, agent in enumerate(self.agents):
            agent.reports_made += 1
            buffered = agent.switch.take_observations()
            if buffered is not None:
                flows += buffered[0]
                nbytes += buffered[1]
                runs.append((slot, len(buffered[0])))
        count = len(flows)
        keys, ids, vals, ends = self.sketches.close_interval(
            np.fromiter(flows, dtype=np.int64, count=count),
            np.fromiter(nbytes, dtype=np.int64, count=count),
            runs,
        )
        # The read's int64 columns and the table's own, unconverted.
        flow_ids, cum, codes, rows = self.classifier._advance(keys, ids, vals, ends)
        row_ends = rows.tolist()
        fsds, merged = group_distributions(
            flow_ids, cum, codes, row_ends, self._tau, table=True
        )
        # Every member's interval bytes from one exact integer prefix
        # sum: the running total through each member's last row.
        through = vals.cumsum().tolist()
        reports = []
        bytes_lo = row_lo = 0
        for agent, fsd, end, row_hi in zip(self.agents, fsds, ends.tolist(), row_ends):
            bytes_hi = through[end - 1] if end else 0
            report = LocalReport(
                switch_name=agent.switch.name,
                fsd=fsd,
                tracked_flows=row_hi - row_lo,
                interval_bytes=bytes_hi - bytes_lo,
            )
            if trace.active:
                _trace_report(report)
            reports.append(report)
            bytes_lo, row_lo = bytes_hi, row_hi
        return reports, merged


class NaiveSketchAgent:
    """Ablation: Elastic Sketch with single-interval classification."""

    def __init__(
        self,
        switch: Switch,
        sketch_config: Optional[ElasticSketchConfig] = None,
        tau: int = mb(1.0),
        dedup_marking: bool = True,
    ):
        self.switch = switch
        self.sketch = ElasticSketch(
            sketch_config or ElasticSketchConfig(seed=switch.switch_id)
        )
        self.tau = tau
        switch.measurement = self.sketch
        switch.dedup_marking = dedup_marking
        self.reports_made = 0

    def collect(self, now: float) -> LocalReport:
        self.switch.flush_observations()
        ids, sizes = self.sketch.read_and_reset_arrays()
        self.reports_made += 1
        return _trace_report(
            LocalReport(
                switch_name=self.switch.name,
                fsd=FlowSizeDistribution.from_size_columns(ids, sizes, tau=self.tau),
                tracked_flows=int(np.count_nonzero(sizes > 0)),
                interval_bytes=int(sizes.sum()),
            )
        )


class NetFlowAgent:
    """Commodity-switch baseline: sampled records, slow export."""

    def __init__(
        self,
        switch: Switch,
        config: Optional[NetFlowConfig] = None,
        tau: int = mb(1.0),
    ):
        self.switch = switch
        self.monitor = NetFlowMonitor(
            config or NetFlowConfig(seed=switch.switch_id)
        )
        self.tau = tau
        switch.measurement = self.monitor
        # NetFlow has no notion of the TOS protocol; every switch on
        # the path samples independently.
        switch.dedup_marking = False
        self.reports_made = 0

    def collect(self, now: float) -> LocalReport:
        self.switch.flush_observations()
        sizes = self.monitor.maybe_export(now)
        fsd = FlowSizeDistribution.from_sizes(sizes, tau=self.tau)
        self.reports_made += 1
        return _trace_report(
            LocalReport(
                switch_name=self.switch.name,
                fsd=fsd,
                tracked_flows=len(sizes),
                interval_bytes=sum(sizes.values()),
            )
        )
