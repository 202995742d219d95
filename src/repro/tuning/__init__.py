"""Performance-oriented tuning: parameter space, utility, SA search."""

from repro.tuning.parameters import (
    ParameterSpace,
    ParameterSpec,
    Direction,
    default_params,
    expert_params,
    default_space,
)
from repro.tuning.utility import UtilityWeights, utility
from repro.tuning.annealing import (
    AnnealingSchedule,
    ImprovedAnnealer,
    NaiveAnnealer,
    SaState,
)
from repro.tuning.search import Tuner, StaticTuner
from repro.tuning.grid import GridSearchTuner, expand_grid
from repro.tuning.eval_cache import EvalCache, default_cache, quantize_params
from repro.tuning.fidelity import SurrogateScreen, default_anchor_params

__all__ = [
    "ParameterSpace",
    "ParameterSpec",
    "Direction",
    "default_params",
    "expert_params",
    "default_space",
    "UtilityWeights",
    "utility",
    "AnnealingSchedule",
    "ImprovedAnnealer",
    "NaiveAnnealer",
    "SaState",
    "Tuner",
    "StaticTuner",
    "GridSearchTuner",
    "expand_grid",
    "EvalCache",
    "default_cache",
    "quantize_params",
    "SurrogateScreen",
    "default_anchor_params",
]
