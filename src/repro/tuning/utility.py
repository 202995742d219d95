"""Equation (1): the network-wide utility function.

``U = ω_TP·O_TP + ω_RTT·O_RTT + ω_PFC·O_PFC`` with operator-assigned
weights summing to 1.  All three objective terms are produced per
monitor interval by :class:`repro.simulator.stats.StatsCollector`:

* ``O_TP``  — mean utilization of active host uplinks, in [0, 1];
* ``O_RTT`` — mean Swift-style normalized RTT (base/runtime), in (0, 1];
* ``O_PFC`` — 1 − mean PFC pause fraction per device, in [0, 1].

So ``U ∈ [0, 1]`` and bigger is better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from repro.simulator.stats import IntervalStats


@dataclass(frozen=True)
class UtilityWeights:
    """Operator preference weights (must sum to 1)."""

    w_tp: float = 0.2
    w_rtt: float = 0.5
    w_pfc: float = 0.3

    def __post_init__(self) -> None:
        for name, value in (("w_tp", self.w_tp), ("w_rtt", self.w_rtt),
                            ("w_pfc", self.w_pfc)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        total = self.w_tp + self.w_rtt + self.w_pfc
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total!r}")


# Table III default weighting (ω_TP, ω_RTT, ω_PFC) = (0.2, 0.5, 0.3).
DEFAULT_WEIGHTS = UtilityWeights(0.2, 0.5, 0.3)

# The paper's example weighting for throughput-sensitive workloads such
# as LLM training: (0.5, 0.2, 0.3).
THROUGHPUT_SENSITIVE_WEIGHTS = UtilityWeights(0.5, 0.2, 0.3)


#: Either a live :class:`IntervalStats` or its plain-dict
#: :meth:`~repro.simulator.stats.IntervalStats.snapshot` — the utility
#: function accepts both, so trace consumers and offline analyzers can
#: re-evaluate Equation (1) straight from persisted records.
StatsLike = Union[IntervalStats, Mapping]


def utility(stats: StatsLike, weights: UtilityWeights = DEFAULT_WEIGHTS) -> float:
    """Evaluate Equation (1) for one monitor interval."""
    if isinstance(stats, IntervalStats):
        return (
            weights.w_tp * stats.throughput_util
            + weights.w_rtt * stats.norm_rtt
            + weights.w_pfc * stats.pfc_ok
        )
    return (
        weights.w_tp * stats["throughput_util"]
        + weights.w_rtt * stats["norm_rtt"]
        + weights.w_pfc * stats["pfc_ok"]
    )


def utility_components(stats: StatsLike) -> dict:
    """The three objective terms, for logging and ablation output."""
    if isinstance(stats, IntervalStats):
        return {
            "O_TP": stats.throughput_util,
            "O_RTT": stats.norm_rtt,
            "O_PFC": stats.pfc_ok,
        }
    return {
        "O_TP": stats["throughput_util"],
        "O_RTT": stats["norm_rtt"],
        "O_PFC": stats["pfc_ok"],
    }
