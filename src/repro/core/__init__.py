"""Paraleon: the paper's contribution, wired end to end.

:class:`ParaleonSystem` attaches the runtime metric monitor (sketch
agents + aggregation + KL trigger) and the performance-oriented tuner
(guided simulated annealing over the full DCQCN parameter space) to a
simulated fabric, implementing the common
:class:`~repro.tuning.search.Tuner` interface so it runs under the
same experiment harness as every baseline.
"""

from repro.core.config import ParaleonConfig
from repro.core.controller import ParaleonController
from repro.core.paraleon import ParaleonSystem, MonitorKind

__all__ = [
    "ParaleonConfig",
    "ParaleonController",
    "ParaleonSystem",
    "MonitorKind",
]
