"""Multi-fidelity evaluation: determinism and equivalence guarantees.

Two contracts from DESIGN.md's "Multi-fidelity evaluation":

* the full-fidelity path is byte-identical with and without a
  :class:`~repro.tuning.fidelity.FidelityConfig` attached;
* early abort never perturbs runs that complete (the abort check is
  read-only until it fires), and abort decisions themselves are
  deterministic.
"""

import random

import pytest

from repro.parallel.executor import SweepExecutor
from repro.parallel.sa import batched_anneal
from repro.parallel.tasks import (
    EvalTask,
    ScenarioSpec,
    evaluate_task,
)
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.fidelity import FidelityConfig
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
    with_config = batched_anneal(
        SPEC,
        _annealer(),
        default_params(),
        batch_size=3,
        max_batches=3,
        fidelity=FidelityConfig(),
    )
    assert _fingerprint(with_config) == _fingerprint(baseline)
    assert with_config.aborted == 0
    assert with_config.surrogate_scored == 0


# -- early abort ---------------------------------------------------------


def test_abort_check_does_not_perturb_completing_runs():
    task = EvalTask(scenario=SPEC, seed=SPEC.seed, params=default_params())
    plain = evaluate_task(task)
    # A threshold so low the bound can never cross it: the run must
    # complete and match the unthresholded run byte for byte.
    guarded = evaluate_task(
        EvalTask(
            scenario=SPEC,
            seed=SPEC.seed,
            params=default_params(),
            abort_threshold=0.0,
        )
    )
    assert not plain.aborted and not guarded.aborted
    assert guarded.fct_digest == plain.fct_digest
    assert guarded.interval_digest == plain.interval_digest
    assert guarded.utilities == plain.utilities


def test_abort_fires_deterministically():
    # A threshold above the achievable utility forces an abort; the
    # decision point and reported bound must be stable across runs.
    task = EvalTask(
        scenario=SPEC,
        seed=SPEC.seed,
        params=default_params(),
        abort_threshold=0.99,
        abort_after_frac=0.5,
    )
    first = evaluate_task(task)
    second = evaluate_task(task)
    assert first.aborted and second.aborted
    assert first.utility == second.utility
    assert first.utilities == second.utilities
    # The bound is optimistic: at least the mean it would have reported.
    n_seen = len(first.utilities)
    assert n_seen > 0
    assert first.utility >= sum(first.utilities) / n_seen


def test_screened_anneal_is_repeatable():
    fidelity = FidelityConfig(
        mode="screen", screen_ratio=3.0, early_abort=True
    )
    runs = [
        batched_anneal(
            SPEC,
            _annealer(),
            default_params(),
            batch_size=2,
            max_batches=3,
            fidelity=fidelity,
        )
        for _ in range(2)
    ]
    assert _fingerprint(runs[0]) == _fingerprint(runs[1])
    assert runs[0].aborted == runs[1].aborted
    assert runs[0].screened_out == runs[1].screened_out
    assert runs[0].surrogate_scored > runs[0].evaluations


def test_hybrid_anneal_is_rejected():
    """The hybrid engine is gone: its fidelity mode is refused, not
    quietly run as the full DES."""
    with pytest.raises(ValueError, match="hybrid"):
        batched_anneal(
            SPEC,
            _annealer(),
            default_params(),
            batch_size=2,
            max_batches=1,
            fidelity=FidelityConfig(mode="hybrid"),
        )


def test_surrogate_anneal_never_returns_worse_than_its_seed():
    """The surrogate walk's winner is DES-confirmed; when it measures
    below the seed (as it does at annealer seed 11 here), the search
    keeps the seed instead of reporting a loss."""
    executor = SweepExecutor(jobs=1)
    seed = executor.map(
        [EvalTask(scenario=SPEC, seed=SPEC.seed, params=default_params())]
    )[0]
    result = batched_anneal(
        SPEC,
        ImprovedAnnealer(
            default_space(),
            AnnealingSchedule(90.0, 30.0, 0.85, 6),
            rng=random.Random(11),
        ),
        default_params(),
        batch_size=4,
        max_batches=8,
        executor=executor,
        fidelity=FidelityConfig(mode="surrogate"),
    )
    assert result.best_utility == seed.utility
    assert result.best_params.as_dict() == default_params().as_dict()
    assert result.evaluations == 2   # the seed and the confirmation run


class _NoDesExecutor:
    """An executor whose every map is a test failure."""

    def map(self, tasks):
        raise AssertionError(f"{len(tasks)} DES evaluation(s) dispatched")


@pytest.mark.parametrize("mode", ["screen", "surrogate"])
def test_fluid_fidelity_on_incast_fails_before_any_des_run(mode):
    """The fluid model has no incast profile: a screened search says so
    up front instead of after spending a DES evaluation."""
    spec = ScenarioSpec(workload="incast", scale="small", duration=0.01, seed=1)
    fidelity = FidelityConfig(mode=mode)
    with pytest.raises(ValueError, match="'incast'"):
        batched_anneal(
            spec, _annealer(), default_params(), batch_size=2,
            executor=_NoDesExecutor(), fidelity=fidelity,
        )
    with pytest.raises(ValueError, match="'incast'"):
        offline_grid_search_parallel(
            spec, executor=_NoDesExecutor(), fidelity=fidelity
        )


def test_grid_sweep_screen_mode_keeps_des_best():
    grid = {"k_min": (10_000.0, 40_000.0), "p_max": (0.05, 0.5)}
    fidelity = FidelityConfig(mode="screen", screen_ratio=2.0)
    best, results = offline_grid_search_parallel(
        SPEC, grid, executor=SweepExecutor(jobs=1), fidelity=fidelity
    )
    assert best.fidelity == "des"
    assert len(results) == 4
    des = [r for r in results if r.fidelity == "des"]
    fluid = [r for r in results if r.fidelity == "fluid"]
    assert len(des) == 2 and len(fluid) == 2
    assert best.utility == max(r.utility for r in des)
    # Repeatable end to end.
    best2, results2 = offline_grid_search_parallel(
        SPEC, grid, executor=SweepExecutor(jobs=1), fidelity=fidelity
    )
    assert [(r.utility, r.fidelity) for r in results2] == [
        (r.utility, r.fidelity) for r in results
    ]
