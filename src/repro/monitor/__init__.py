"""Paraleon's Runtime Metric Monitor.

Layered flow-size-distribution measurement: Elastic Sketches in switch
data planes, sliding-window ternary state tracking in switch control
planes, and network-wide aggregation plus KL-divergence change
detection at the centralized controller.  One columnar data plane
serves every monitor arm; the one-packet-at-a-time reference pipeline
the tests hold it to lives in ``tests/scalar_monitor.py``.
"""

from repro.monitor.states import TernaryState, ColumnarSlidingWindowClassifier
from repro.monitor.fsd import FlowSizeDistribution, kl_divergence
from repro.monitor.agent import (
    SwitchAgent,
    LocalReport,
    NetFlowAgent,
    NaiveSketchAgent,
)
from repro.monitor.aggregate import FsdAggregator

__all__ = [
    "TernaryState",
    "ColumnarSlidingWindowClassifier",
    "FlowSizeDistribution",
    "kl_divergence",
    "SwitchAgent",
    "LocalReport",
    "NetFlowAgent",
    "NaiveSketchAgent",
    "FsdAggregator",
]
