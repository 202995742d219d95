"""The DCQCN tuning space: bounds, directions and empirical steps.

Section III-C of the paper observes that each parameter's effect can be
classified into a *throughput-friendly* and a *delay-friendly* tuning
direction (Fig. 5), and that guided SA mutation needs an empirical step
``s_p`` per parameter.  This module encodes that knowledge:

* :class:`ParameterSpec` — one tunable knob: bounds, step, and which
  direction (increment/decrement) favours throughput.
* :class:`ParameterSpace` — the full set ``P`` of 11 knobs spanning
  both RNIC and switch sides, with clamping and mutation helpers.
* :func:`default_params` / :func:`expert_params` — the two static
  baselines compared throughout the evaluation ("Default" is the
  NVIDIA out-of-box setting, "Expert" is Table I), both expressed at
  this reproduction's 10 Gbps reference fabric.

Scale-down note: Table I is stated for a 400 Gbps testbed (ai 50 Mbps,
hai 150 Mbps, K_min 1600 KB, K_max 6400 KB, ...).  We preserve the
*relationships* that make the expert setting throughput-friendly —
larger increase steps, fewer rate cuts (bigger
``rate_reduce_monitor_period``), sparser CNPs, higher ECN thresholds —
re-expressed at the 10 Gbps reference so queue thresholds stay
proportionate to the scaled BDP.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.units import kb, mbps, us


class Direction(enum.IntEnum):
    """Sign of the throughput-friendly adjustment for a parameter."""

    INCREMENT = 1
    DECREMENT = -1


@dataclass(frozen=True)
class ParameterSpec:
    """One tunable DCQCN knob.

    ``tp_direction`` is the throughput-friendly direction from the
    paper's single-parameter impact study; the delay-friendly direction
    is its negation.  ``step`` is the empirical step ``s_p``.
    ``integral`` marks knobs that must stay integers (byte thresholds,
    stage counts).
    """

    name: str
    low: float
    high: float
    step: float
    tp_direction: Direction
    integral: bool = False

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError(f"{self.name}: low must be < high")
        if self.step <= 0:
            raise ValueError(f"{self.name}: step must be positive")

    def clamp(self, value: float) -> float:
        # min(max(value, low), high) as the conditionals it evaluates.
        low, high = self.low, self.high
        value = low if low > value else value
        value = high if high < value else value
        if self.integral:
            value = int(round(value))
            value = low if low > value else value
            value = int(high if high < value else value)
        return value

    def move(self, value: float, toward_throughput: bool, scale: float) -> float:
        """Move ``value`` one (scaled) step in the requested direction."""
        sign = int(self.tp_direction) if toward_throughput else -int(self.tp_direction)
        return self.clamp(value + sign * self.step * scale)


# The tuned set P.  Bounds are for the 10 Gbps reference fabric and
# deliberately span a *sane operating envelope*, not the hardware's
# full register range: the empirical steps s_p and the bounds together
# encode the expert knowledge the paper bakes into its guided search
# (an operator would never mark every packet at a 4 KB queue or allow
# a rate cut every 2 us, so neither does the search space).
_SPECS: List[ParameterSpec] = [
    ParameterSpec("rpg_ai_rate", mbps(10), mbps(500), mbps(20), Direction.INCREMENT),
    ParameterSpec("rpg_hai_rate", mbps(50), mbps(2000), mbps(100), Direction.INCREMENT),
    ParameterSpec(
        "rate_reduce_monitor_period", us(15), us(400), us(25), Direction.INCREMENT
    ),
    ParameterSpec(
        "min_time_between_cnps", us(15), us(400), us(25), Direction.INCREMENT
    ),
    ParameterSpec("k_min", kb(8), kb(400), kb(20), Direction.INCREMENT, integral=True),
    ParameterSpec(
        "k_max", kb(60), kb(2000), kb(100), Direction.INCREMENT, integral=True
    ),
    ParameterSpec("p_max", 0.02, 0.6, 0.05, Direction.DECREMENT),
    ParameterSpec("rpg_time_reset", us(50), us(1200), us(50), Direction.DECREMENT),
    ParameterSpec(
        "rpg_byte_reset", kb(8), kb(300), kb(8), Direction.DECREMENT, integral=True
    ),
    ParameterSpec(
        "dce_tcp_g", 1.0 / 1024.0, 1.0 / 16.0, 1.0 / 256.0, Direction.DECREMENT
    ),
    ParameterSpec("rpg_threshold", 1, 10, 1, Direction.DECREMENT, integral=True),
]


class ParameterSpace:
    """The searchable DCQCN parameter space."""

    def __init__(self, specs: Optional[List[ParameterSpec]] = None):
        self.specs: Dict[str, ParameterSpec] = {
            spec.name: spec for spec in (specs or _SPECS)
        }

    @property
    def names(self) -> List[str]:
        return list(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __contains__(self, name: str) -> bool:
        return name in self.specs

    def clamp(self, params: DcqcnParams) -> DcqcnParams:
        """Clamp every tuned field into bounds and repair k_min < k_max."""
        values = params.as_dict()
        for name, spec in self.specs.items():
            values[name] = spec.clamp(values[name])
        return self._with_ramp(values)

    def _with_ramp(self, values: dict) -> DcqcnParams:
        """``values`` as params, ``k_min`` kept one MTU below ``k_max``."""
        if values["k_min"] >= values["k_max"]:
            values["k_min"] = int(
                max(self.specs["k_min"].low, values["k_max"] - kb(8))
            )
        return DcqcnParams.from_dict(values)

    def mutate(
        self,
        params: DcqcnParams,
        rng: random.Random,
        tp_probability: float,
        step_scale_range: tuple = (0.5, 1.0),
    ) -> DcqcnParams:
        """One SA mutation: move every knob one random-scaled step.

        Each parameter independently goes in the throughput-friendly
        direction with probability ``tp_probability`` (the paper's
        ``min(µ, η)`` guided-randomness rule when guided, 0.5 when
        naive), with step ``s_p × rand(*step_scale_range)``.  Each move
        lands clamped, so only the ramp repair is left to do.
        """
        if not 0.0 <= tp_probability <= 1.0:
            raise ValueError("tp_probability must be in [0, 1]")
        values = params.as_dict()
        low, high = step_scale_range
        for name, spec in self.specs.items():
            toward_tp = rng.random() < tp_probability
            scale = rng.uniform(low, high)
            values[name] = spec.move(values[name], toward_tp, scale)
        return self._with_ramp(values)

    def random_point(self, rng: random.Random, base: DcqcnParams) -> DcqcnParams:
        """Uniform random setting (used by tests and random-restart)."""
        values = base.as_dict()
        for name, spec in self.specs.items():
            if spec.integral:
                values[name] = int(rng.uniform(spec.low, spec.high))
            else:
                values[name] = rng.uniform(spec.low, spec.high)
        return self.clamp(DcqcnParams.from_dict(values))

    def distance(self, a: DcqcnParams, b: DcqcnParams) -> float:
        """Normalized L2 distance between two settings (diagnostics)."""
        total = 0.0
        av, bv = a.as_dict(), b.as_dict()
        for name, spec in self.specs.items():
            span = spec.high - spec.low
            total += ((av[name] - bv[name]) / span) ** 2
        return math.sqrt(total / len(self.specs))


def default_space() -> ParameterSpace:
    """The paper's tuned parameter set ``P``."""
    return ParameterSpace()


def default_params() -> DcqcnParams:
    """NVIDIA out-of-box setting at the 10 Gbps reference fabric."""
    return DcqcnParams()


def expert_params() -> DcqcnParams:
    """The Table I expert setting, rescaled to the reference fabric.

    Relationships preserved from Table I (vs the default): 5x additive
    increase, larger hyper increase, 4x rarer rate cuts, ~3x sparser
    CNPs, and ECN thresholds lifted with a flatter-but-longer marking
    ramp (higher ``k_min``/``k_max``, ``p_max`` 0.2).  The result is a
    strongly throughput-friendly static setting, which is exactly how
    the paper uses it (great for elephants, worse for latency).
    """
    return DcqcnParams(
        rpg_ai_rate=mbps(100.0),
        rpg_hai_rate=mbps(400.0),
        rate_reduce_monitor_period=us(200.0),
        min_time_between_cnps=us(150.0),
        k_min=kb(80.0),
        k_max=kb(320.0),
        p_max=0.2,
    )
