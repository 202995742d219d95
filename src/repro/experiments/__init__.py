"""Experiment harness: scenario builders, the interval runner and FCT
statistics used by every benchmark."""

from repro.experiments.runner import ExperimentRunner, ExperimentResult
from repro.experiments.persistence import (
    load_result_data,
    result_to_dict,
    save_result,
)
from repro.experiments.fct import (
    FctStats,
    slowdown_records,
    average_slowdown,
    percentile,
    fct_cdf,
)

__all__ = [
    "ExperimentRunner",
    "ExperimentResult",
    "FctStats",
    "slowdown_records",
    "average_slowdown",
    "percentile",
    "fct_cdf",
    "load_result_data",
    "result_to_dict",
    "save_result",
]
