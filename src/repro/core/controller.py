"""The centralized Paraleon controller (event-driven closed loop).

Once per monitor interval the controller:

1. collects local FSDs from every ToR agent and merges them into the
   network-wide flow size distribution;
2. evaluates the utility function over the interval's runtime metrics;
3. if a tuning process is active, feeds the measured utility back to
   the annealer (Metropolis acceptance for the parameters dispatched
   last interval) and either proposes the next mutation ``P_m`` or —
   when the temperature has cooled below the final value — dispatches
   the best setting found and goes idle;
4. if idle, checks the tuning trigger: ``KL(R_t, R_{t-1}) > θ`` means
   the traffic pattern shifted and a new tuning process starts from
   the currently deployed parameters.

The controller is transport-agnostic: the experiment harness calls
:meth:`on_interval` directly, while :mod:`repro.rpc` demonstrates the
same loop over real TCP sockets with the paper's message sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import ParaleonConfig
from repro.monitor.aggregate import FsdAggregator
from repro.monitor.fsd import FlowSizeDistribution
from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.stats import IntervalStats
from repro.telemetry import trace
from repro.tuning.annealing import _AnnealerBase
from repro.tuning.utility import utility, utility_components


@dataclass
class ControllerLogEntry:
    """One monitor interval's worth of controller state (for figures)."""

    time: float
    utility: float
    kl: float
    tuning_active: bool
    elephant_fraction: float
    dispatched: bool


class ParaleonController:
    """KL-triggered tuning loop over an annealer and an aggregator."""

    def __init__(
        self,
        config: ParaleonConfig,
        aggregator: Optional[FsdAggregator],
        annealer: _AnnealerBase,
        initial_params: DcqcnParams,
    ):
        self.config = config
        self.aggregator = aggregator
        self.annealer = annealer
        self.deployed = initial_params
        self.last_best: Optional[DcqcnParams] = None
        self._awaiting_feedback = False
        self._process_dominant: Optional[bool] = None
        self.log: List[ControllerLogEntry] = []
        self.tuning_processes_started = 0
        self.tuning_processes_finished = 0
        self.tuning_processes_restarted = 0

    @property
    def tuning_active(self) -> bool:
        return self.annealer.state is not None and not self.annealer.done

    def on_interval(self, stats: IntervalStats) -> Optional[DcqcnParams]:
        """One monitor interval; returns params to dispatch, if any."""
        fsd: Optional[FlowSizeDistribution] = None
        kl = 0.0
        if self.aggregator is not None:
            fsd = self.aggregator.collect(stats.t_end)
            kl = self.aggregator.kl_from_previous()

        measured_utility = utility(stats, self.config.weights)
        dispatched: Optional[DcqcnParams] = None

        if trace.active:
            trace.event(
                "controller.kl",
                {
                    "t": stats.t_end,
                    "kl": kl,
                    "theta": self.config.theta,
                    "triggered": kl > self.config.theta,
                    "tuning_active": self.tuning_active,
                    "utility": measured_utility,
                    "terms": utility_components(stats),
                },
            )

        if self._awaiting_feedback:
            # The breakdown only feeds the ``sa.step`` trace record.
            self.annealer.feedback(
                measured_utility,
                terms=utility_components(stats) if trace.active else None,
            )
            self._awaiting_feedback = False

        if self.tuning_active:
            # A *significant* traffic change mid-tuning (the dominant
            # flow type flipped and KL spiked) restarts the process at
            # full temperature, so adaptation happens in big hot moves
            # instead of crawling out of a cooled-down optimum.
            dominant = self._dominant_of(fsd)
            if (
                dominant is not None
                and self._process_dominant is not None
                and dominant != self._process_dominant
                and kl > self.config.theta
            ):
                self.annealer.begin(self.deployed, measured_utility)
                self._process_dominant = dominant
                self.tuning_processes_restarted += 1
            dispatched = self._next_proposal(fsd)
        elif self.annealer.state is not None and self.annealer.done:
            # Tuning just finished: lock in the best setting found.
            best = self.annealer.best
            self.last_best = best
            if best.as_dict() != self.deployed.as_dict():
                dispatched = best
            self.annealer.state = None
            self.tuning_processes_finished += 1
        elif kl > self.config.theta:
            # Significant traffic change: start a tuning process.
            self.annealer.begin(self.deployed, measured_utility)
            self._process_dominant = self._dominant_of(fsd)
            self.tuning_processes_started += 1
            dispatched = self._next_proposal(fsd)
        elif self.aggregator is None:
            # "No FSD" operation: without a flow size distribution
            # there is no KL trigger and no guidance, so the search
            # runs continuously and blindly (Fig. 10's No-FSD arm).
            self.annealer.begin(self.deployed, measured_utility)
            self._process_dominant = None
            self.tuning_processes_started += 1
            dispatched = self._next_proposal(None)

        if dispatched is not None:
            self.deployed = dispatched
            if trace.active:
                trace.event(
                    "controller.dispatch",
                    {"t": stats.t_end, "params": dispatched.as_dict()},
                )

        self.log.append(
            ControllerLogEntry(
                time=stats.t_end,
                utility=measured_utility,
                kl=kl,
                tuning_active=self.tuning_active,
                elephant_fraction=fsd.elephant_fraction() if fsd else 0.0,
                dispatched=dispatched is not None,
            )
        )
        return dispatched

    @staticmethod
    def _dominant_of(fsd: Optional[FlowSizeDistribution]) -> Optional[bool]:
        if fsd is None or fsd.total_flows <= 0:
            return None
        return fsd.dominant()[0]

    def _next_proposal(self, fsd: Optional[FlowSizeDistribution]) -> DcqcnParams:
        bias = fsd.dominant() if fsd is not None and fsd.total_flows > 0 else None
        proposal = self.annealer.propose(bias)
        self._awaiting_feedback = True
        return proposal

    # -- diagnostics used by figures ------------------------------------

    def utility_trace(self) -> List[float]:
        return [entry.utility for entry in self.log]

    def kl_trace(self) -> List[float]:
        return [entry.kl for entry in self.log]
