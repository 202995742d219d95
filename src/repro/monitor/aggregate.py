"""Network-wide FSD aggregation at the centralized controller.

The layered design of Fig. 2: each ToR agent computes a *local* flow
size distribution; the controller merges them into the network-wide
distribution.  With TOS-dedup marking each flow is measured at exactly
one switch, so the merge is a plain union — this is what keeps the
controller's compute and the switch→controller transfer small
(Table IV).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.monitor.agent import AgentStack, LocalReport
from repro.monitor.fsd import (
    FlowSizeDistribution,
    kl_divergence,
    merge_distributions,
)
from repro.telemetry import trace


class FsdAggregator:
    """Collects local reports and maintains the network-wide FSD.

    Agents with the stacked hook (``stack_key``: the
    :class:`~repro.monitor.agent.SwitchAgent`) are collected in one
    :class:`~repro.monitor.agent.AgentStack` pass per key, every
    other agent through its own ``collect``; reports stay in agent
    order either way.  When one stack holds every agent, its pass also
    yields the merged FSD; otherwise ``merge_distributions`` merges
    the reports.
    """

    def __init__(self, agents: Sequence[object]):
        if not agents:
            raise ValueError("need at least one monitoring agent")
        self.agents = list(agents)
        switches = [getattr(agent, "switch", None) for agent in self.agents]
        if len({id(agent) for agent in self.agents}) < len(self.agents):
            raise ValueError("an agent appears twice; its reports would count twice")
        placed = [s for s in switches if s is not None]
        if len({id(s) for s in placed}) < len(placed):
            raise ValueError("two agents monitor one switch")
        groups: Dict[Tuple, List[int]] = {}
        self._solo: List[int] = []
        for i, agent in enumerate(self.agents):
            stack_key = getattr(agent, "stack_key", None)
            if stack_key is None:
                self._solo.append(i)
            else:
                groups.setdefault(stack_key(), []).append(i)
        #: ``(stack, positions of its members in agents)`` per shape.
        self.stacks = [
            (AgentStack([self.agents[i] for i in members]), members)
            for members in groups.values()
        ]
        # One stack of every agent (in agent order) yields the merged
        # FSD from its own pass; any other mix merges the reports.
        self._one_stack: Optional[AgentStack] = None
        if len(self.stacks) == 1 and not self._solo:
            self._one_stack = self.stacks[0][0]
        self.current: Optional[FlowSizeDistribution] = None
        self.previous: Optional[FlowSizeDistribution] = None
        self.last_reports: List[LocalReport] = []
        self.collections = 0

    def collect(self, now: float) -> FlowSizeDistribution:
        """One monitor interval: gather and merge all local FSDs."""
        if self._one_stack is not None:
            reports, merged = self._one_stack.collect_merged(now)
        else:
            reports: List[Optional[LocalReport]] = [None] * len(self.agents)
            for stack, members in self.stacks:
                for i, report in zip(members, stack.collect(now)):
                    reports[i] = report
            for i in self._solo:
                reports[i] = self.agents[i].collect(now)
            merged = merge_distributions(report.fsd for report in reports)
        self.last_reports = reports
        self.previous = self.current
        self.current = merged
        self.collections += 1
        if trace.active:
            trace.event(
                "monitor.fsd_upload",
                {
                    "t": now,
                    "agents": len(self.agents),
                    "payload_bytes": self.upload_bytes_per_interval(),
                    "total_flows": merged.total_flows,
                    "elephant_fraction": merged.elephant_fraction(),
                },
            )
        return merged

    def kl_from_previous(self) -> float:
        """``KL(R_t, R_{t-1})``; 0 until two intervals have been seen."""
        if self.current is None or self.previous is None:
            return 0.0
        return kl_divergence(self.current, self.previous)

    def upload_bytes_per_interval(self) -> int:
        """Total switch→controller transfer per interval (Table IV)."""
        return sum(report.payload_bytes() for report in self.last_reports)
