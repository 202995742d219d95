"""Ablation: decompose Paraleon's two SA optimizations.

Fig. 12 compares the full system against naive SA; this bench pulls
the two optimizations apart on the FB_Hadoop workload:

* guided + relaxed  (Paraleon)
* unguided + relaxed (guidance removed)
* guided + textbook schedule (relaxed temperature removed)
* unguided + textbook schedule (naive SA)

Expectation: guidance is the dominant contributor on a workload with a
clear dominant flow type, and the full combination is at least as good
as every ablated arm.
"""

from __future__ import annotations

import random

from conftest import emit

from repro.core import ParaleonConfig, ParaleonSystem
from repro.telemetry.tables import format_table
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import make_network
from repro.simulator.units import ms
from repro.tuning.annealing import (
    NAIVE_SCHEDULE,
    AnnealingSchedule,
    ImprovedAnnealer,
    NaiveAnnealer,
)
from repro.tuning.parameters import default_space
from repro.workloads import FbHadoopWorkload

RUN_TIME = 0.1
SKIP = 10


class _UnguidedRelaxed(NaiveAnnealer):
    """Unguided mutation on the relaxed (Table III) schedule."""

    step_scale_range = (0.5, 1.0)

    def __init__(self, space, schedule=None, rng=None, temperature_scale=0.01):
        super().__init__(space, AnnealingSchedule(), rng, temperature_scale)


class _GuidedSlow(ImprovedAnnealer):
    """Guided mutation on the textbook (slow) schedule."""

    def __init__(self, space, schedule=None, rng=None, eta=0.8,
                 temperature_scale=0.01):
        super().__init__(space, NAIVE_SCHEDULE, rng, eta, temperature_scale)


ARMS = [
    ("guided+relaxed", ImprovedAnnealer),
    ("unguided+relaxed", _UnguidedRelaxed),
    ("guided+slow", _GuidedSlow),
    ("unguided+slow", NaiveAnnealer),
]


def run_arm(annealer_cls, seeds):
    means = []
    for seed in seeds:
        network = make_network("medium", seed=seed)
        FbHadoopWorkload(load=0.3, duration=0.08, seed=seed).install(network)
        system = ParaleonSystem(config=ParaleonConfig())
        system._annealer = annealer_cls(default_space(), rng=random.Random(seed))
        runner = ExperimentRunner(network, system, monitor_interval=ms(1.0))
        means.append(runner.run(RUN_TIME).mean_utility(skip=SKIP))
    return sum(means) / len(means)


def test_ablation_guided_randomness(benchmark):
    utilities = {}

    def experiment():
        for label, annealer_cls in ARMS:
            utilities[label] = run_arm(annealer_cls, seeds=[101, 102])

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    emit(
        "ablation_guided_randomness",
        format_table(
            ["arm", "mean utility (post-warmup)"],
            [[label, f"{value:.4f}"] for label, value in utilities.items()],
            title="Ablation: guided randomness x relaxed temperature (FB_Hadoop)",
        ),
    )

    full = utilities["guided+relaxed"]
    # The full combination beats the fully-naive arm...
    assert full > utilities["unguided+slow"]
    # ...and is at least competitive with each single-ablation arm.
    assert full >= utilities["unguided+relaxed"] - 0.02
    assert full >= utilities["guided+slow"] - 0.02
