"""The fluid screen: determinism and equivalence guarantees.

Contracts from DESIGN.md's "Multi-fidelity evaluation":

* the full-fidelity path is byte-identical whether ``screen_ratio``
  is left at its default or passed as ``None``;
* a screened search is repeatable, fails up front on a workload the
  fluid model cannot score, and reports a DES-measured best.
"""

import random

import pytest

from repro.parallel.executor import SweepExecutor
from repro.parallel.sa import batched_anneal
from repro.parallel.tasks import ScenarioSpec
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.parallel.sweeps import offline_grid_search_parallel
from repro.tuning.parameters import default_params, default_space

SPEC = ScenarioSpec(workload="hadoop", scale="small", duration=0.01, seed=1)


def _annealer(seed=7):
    return ImprovedAnnealer(
        default_space(),
        AnnealingSchedule(90.0, 40.0, 0.85, 4),
        rng=random.Random(seed),
    )


def _fingerprint(result):
    return (
        result.best_params.as_dict(),
        result.best_utility,
        result.evaluations,
        result.batches,
        tuple(result.utility_trace),
    )


# -- full-fidelity equivalence ------------------------------------------


def test_default_fidelity_config_is_identity():
    baseline = batched_anneal(
        SPEC, _annealer(), default_params(), batch_size=3, max_batches=3
    )
    explicit = batched_anneal(
        SPEC,
        _annealer(),
        default_params(),
        batch_size=3,
        max_batches=3,
        screen_ratio=None,
    )
    assert _fingerprint(explicit) == _fingerprint(baseline)
    assert explicit.surrogate_scored == 0


# -- the fluid screen ----------------------------------------------------


def test_screened_anneal_is_repeatable():
    runs = [
        batched_anneal(
            SPEC,
            _annealer(),
            default_params(),
            batch_size=2,
            max_batches=3,
            screen_ratio=3.0,
        )
        for _ in range(2)
    ]
    assert _fingerprint(runs[0]) == _fingerprint(runs[1])
    assert runs[0].screened_out == runs[1].screened_out
    assert runs[0].surrogate_scored > runs[0].evaluations


class _NoDesExecutor:
    """An executor whose every map is a test failure."""

    def map(self, tasks):
        raise AssertionError(f"{len(tasks)} DES evaluation(s) dispatched")


def test_hybrid_anneal_is_rejected():
    """The hybrid engine is gone: its old mode name is refused as a
    screen ratio, not quietly run as the full DES."""
    with pytest.raises(ValueError, match="hybrid"):
        batched_anneal(
            SPEC,
            _annealer(),
            default_params(),
            batch_size=2,
            max_batches=1,
            executor=_NoDesExecutor(),
            screen_ratio="hybrid",
        )


@pytest.mark.parametrize("screen_ratio", [3.0, 1.0], ids=("screen", "keep-all"))
def test_fluid_fidelity_on_incast_fails_before_any_des_run(screen_ratio):
    """The fluid model has no incast profile: a screened search says so
    up front instead of after spending a DES evaluation — even at
    ratio 1, which keeps every candidate but still scores them."""
    spec = ScenarioSpec(workload="incast", scale="small", duration=0.01, seed=1)
    with pytest.raises(ValueError, match="'incast'"):
        batched_anneal(
            spec, _annealer(), default_params(), batch_size=2,
            executor=_NoDesExecutor(), screen_ratio=screen_ratio,
        )
    with pytest.raises(ValueError, match="'incast'"):
        offline_grid_search_parallel(
            spec, executor=_NoDesExecutor(), screen_ratio=screen_ratio
        )


def test_grid_sweep_screen_mode_keeps_des_best():
    grid = {"k_min": (10_000.0, 40_000.0), "p_max": (0.05, 0.5)}
    best, results = offline_grid_search_parallel(
        SPEC, grid, executor=SweepExecutor(jobs=1), screen_ratio=2.0
    )
    assert best.fidelity == "des"
    assert len(results) == 4
    des = [r for r in results if r.fidelity == "des"]
    fluid = [r for r in results if r.fidelity == "fluid"]
    assert len(des) == 2 and len(fluid) == 2
    assert best.utility == max(r.utility for r in des)
    # Repeatable end to end.
    best2, results2 = offline_grid_search_parallel(
        SPEC, grid, executor=SweepExecutor(jobs=1), screen_ratio=2.0
    )
    assert [(r.utility, r.fidelity) for r in results2] == [
        (r.utility, r.fidelity) for r in results
    ]
