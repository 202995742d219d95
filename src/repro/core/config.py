"""Paraleon system settings — Table III of the paper.

| Category                | Parameter                     | Value         |
|-------------------------|-------------------------------|---------------|
| Ternary flow states     | elephant threshold τ          | 1 MB          |
|                         | window size δ                 | 3             |
| Tuning trigger/weights  | KL divergence threshold θ     | 0.01          |
|                         | ω_TP, ω_RTT, ω_PFC            | 0.2, 0.5, 0.3 |
| SA algorithm            | total_iter_num                | 20            |
|                         | cooling rate                  | 0.85          |
|                         | initial temperature           | 90            |
|                         | final temperature             | 10            |
| Miscellaneous           | monitor interval λ_MI         | 1 ms          |
|                         | max SA exploitation rate η    | 0.8           |
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.monitor.states import check_knobs
from repro.simulator.units import mb, ms
from repro.tuning.annealing import AnnealingSchedule
from repro.tuning.utility import DEFAULT_WEIGHTS, UtilityWeights


@dataclass(frozen=True)
class ParaleonConfig:
    """All Paraleon knobs, defaulting to Table III."""

    # Ternary flow state update.
    tau: int = mb(1.0)
    delta: int = 3

    # Tuning trigger threshold and utility weights.
    theta: float = 0.01
    weights: UtilityWeights = DEFAULT_WEIGHTS

    # SA schedule (relaxed temperature).
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)

    # Miscellaneous.
    monitor_interval: float = ms(1.0)
    eta: float = 0.8

    # Reproduction-only knob: random seed for the annealer.
    seed: int = 7

    def __post_init__(self) -> None:
        check_knobs(self.tau, self.delta)
        # ``nan < 0`` is False, so each bound is stated the way a NaN
        # fails: a NaN theta would never trigger.
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValueError(f"theta must be finite and >= 0, got {self.theta}")
        if not (math.isfinite(self.monitor_interval) and self.monitor_interval > 0):
            raise ValueError(
                f"monitor_interval must be finite and positive, got {self.monitor_interval}"
            )
        if not 0.5 <= self.eta <= 1.0:
            raise ValueError("eta must be in [0.5, 1]")
