"""ParaleonSystem: monitor + tuner bound to a fabric, as a Tuner.

This is the class a downstream user instantiates::

    from repro.core import ParaleonSystem
    from repro.experiments.runner import ExperimentRunner

    system = ParaleonSystem()
    runner = ExperimentRunner(network, system, monitor_interval=1e-3)
    runner.run(duration=0.2)

Construction options cover the paper's ablation arms:

* ``monitor`` — which monitoring pipeline feeds the tuner:
  ``"paraleon"`` (Elastic Sketch + sliding-window ternary states +
  TOS dedup), ``"naive-sketch"``, ``"netflow"``, or ``"none"``
  (tuning runs FSD-blind, the *No FSD* arm of Fig. 10);
* ``annealer`` — ``"improved"`` (guided randomness + relaxed
  temperature) or ``"naive"`` (the Fig. 12 baseline);
* ``dedup_marking`` — disable to reproduce the TOS-marking ablation.
"""

from __future__ import annotations

import enum
import random
from typing import List, Optional

from repro.core.config import ParaleonConfig
from repro.core.controller import ParaleonController
from repro.monitor.agent import NaiveSketchAgent, NetFlowAgent, SwitchAgent
from repro.monitor.aggregate import FsdAggregator
from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.network import Network
from repro.simulator.stats import IntervalStats
from repro.sketch.elastic import ElasticSketchConfig
from repro.sketch.netflow import NetFlowConfig
from repro.tuning.annealing import ImprovedAnnealer, NaiveAnnealer
from repro.tuning.parameters import ParameterSpace, default_params, default_space


class MonitorKind(str, enum.Enum):
    """Which monitoring pipeline feeds the guided SA."""

    PARALEON = "paraleon"
    NAIVE_SKETCH = "naive-sketch"
    NETFLOW = "netflow"
    NONE = "none"


class ParaleonSystem:
    """The full system, deployable on a :class:`Network` as a Tuner."""

    def __init__(
        self,
        config: Optional[ParaleonConfig] = None,
        initial_params: Optional[DcqcnParams] = None,
        space: Optional[ParameterSpace] = None,
        monitor: MonitorKind = MonitorKind.PARALEON,
        annealer: str = "improved",
        dedup_marking: bool = True,
        sketch_config: Optional[ElasticSketchConfig] = None,
        netflow_config: Optional[NetFlowConfig] = None,
        name: Optional[str] = None,
    ):
        self.config = config or ParaleonConfig()
        self.initial_params = initial_params or default_params()
        self.space = space or default_space()
        self.monitor = MonitorKind(monitor)
        self.dedup_marking = dedup_marking
        self.sketch_config = sketch_config
        self.netflow_config = netflow_config
        self.name = name or "Paraleon"

        rng = random.Random(self.config.seed)
        if annealer == "improved":
            self._annealer = ImprovedAnnealer(
                self.space, self.config.schedule, rng, eta=self.config.eta
            )
        elif annealer == "naive":
            self._annealer = NaiveAnnealer(self.space, rng=rng)
        else:
            raise ValueError(f"unknown annealer kind {annealer!r}")

        self.agents: List[object] = []
        self.controller: Optional[ParaleonController] = None
        self.network: Optional[Network] = None

    # -- Tuner interface -------------------------------------------------

    def attach(self, network: Network) -> None:
        """Install params, sketch agents and the controller."""
        self.network = network
        network.set_all_params(self.initial_params)
        self.agents = self._make_agents(network)
        aggregator = FsdAggregator(self.agents) if self.agents else None
        self.controller = ParaleonController(
            self.config, aggregator, self._annealer, self.initial_params
        )

    def on_interval(self, stats: IntervalStats) -> Optional[DcqcnParams]:
        if self.controller is None:
            raise RuntimeError("ParaleonSystem.attach() was never called")
        return self.controller.on_interval(stats)

    # -- internals ---------------------------------------------------------

    def _make_agents(self, network: Network) -> List[object]:
        if self.monitor is MonitorKind.NONE:
            return []
        agents: List[object] = []
        for tor in network.tors:
            if self.monitor is MonitorKind.PARALEON:
                agents.append(
                    SwitchAgent(
                        tor,
                        sketch_config=self.sketch_config,
                        tau=self.config.tau,
                        delta=self.config.delta,
                        dedup_marking=self.dedup_marking,
                    )
                )
            elif self.monitor is MonitorKind.NAIVE_SKETCH:
                agents.append(
                    NaiveSketchAgent(
                        tor,
                        sketch_config=self.sketch_config,
                        tau=self.config.tau,
                        dedup_marking=self.dedup_marking,
                    )
                )
            elif self.monitor is MonitorKind.NETFLOW:
                agents.append(
                    NetFlowAgent(tor, config=self.netflow_config, tau=self.config.tau)
                )
        return agents

    # -- diagnostics ---------------------------------------------------------

    @property
    def tuning_active(self) -> bool:
        return self.controller is not None and self.controller.tuning_active

    def utility_trace(self) -> List[float]:
        if self.controller is None:
            return []
        return self.controller.utility_trace()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParaleonSystem(monitor={self.monitor.value})"
