"""Fluid-model surrogate: determinism, calibration, and DES fidelity.

The headline acceptance test is the parametrized Spearman check: over
the standard anchor set the fluid ranking must track the DES ranking
with rho >= 0.8 on each anchor scenario — the property successive
halving relies on (a screen that mis-ranks would discard the true
optimum before the DES ever sees it).
"""

import math

import pytest

from repro.parallel.tasks import EvalTask, ScenarioSpec, evaluate_task
from repro.simulator.fluid import (
    DEFAULT_DT,
    FluidCalibration,
    FluidModel,
    FluidResult,
    fit_calibration,
    profile_for_scenario,
    spearman_rank_correlation,
)
from repro.simulator.ordered import ordered_sum
from repro.tuning.fidelity import default_anchor_params
from repro.tuning.parameters import default_params

ANCHOR_SCENARIOS = [
    ScenarioSpec(workload="hadoop", scale="small", duration=0.02, seed=1),
    ScenarioSpec(workload="alltoall", scale="small", duration=0.02, seed=1),
]


def _des_utilities(spec, anchor_params):
    utilities = []
    for i, params in enumerate(anchor_params):
        result = evaluate_task(
            EvalTask(scenario=spec, seed=spec.seed, params=params, index=i)
        )
        utilities.append(result.utility)
    return utilities


@pytest.mark.parametrize(
    "spec", ANCHOR_SCENARIOS, ids=lambda s: f"{s.workload}-{s.scale}"
)
def test_fluid_rank_correlation_against_des(spec):
    anchors = default_anchor_params(default_params())
    model = FluidModel(DEFAULT_DT)
    fluid = [r.utility for r in model.evaluate_batch(spec, anchors)]
    des = _des_utilities(spec, anchors)
    rho = spearman_rank_correlation(fluid, des)
    assert rho >= 0.8, (
        f"fluid surrogate mis-ranks {spec.workload}/{spec.scale}: "
        f"rho={rho:.3f} fluid={fluid} des={des}"
    )


def test_evaluate_batch_is_deterministic():
    spec = ANCHOR_SCENARIOS[0]
    anchors = default_anchor_params(default_params())
    model = FluidModel(DEFAULT_DT)
    first = model.evaluate_batch(spec, anchors)
    second = model.evaluate_batch(spec, anchors)
    assert [r.utility for r in first] == [r.utility for r in second]
    assert [r.utilities for r in first] == [r.utilities for r in second]


def test_evaluate_batch_positional_alignment():
    spec = ANCHOR_SCENARIOS[0]
    anchors = default_anchor_params(default_params())
    model = FluidModel(DEFAULT_DT)
    batch = model.evaluate_batch(spec, anchors)
    assert len(batch) == len(anchors)
    singles = [
        model.evaluate_batch(spec, [params])[0].utility for params in anchors
    ]
    batched = [r.utility for r in batch]
    assert batched == pytest.approx(singles, abs=1e-9)


def test_profile_for_scenario_shapes():
    for spec in ANCHOR_SCENARIOS:
        profile = profile_for_scenario(spec)
        n = len(profile.flows)
        assert n >= 1
        assert len(profile.active_frac) == n
        assert all(f >= 0.0 for f in profile.flows)
        assert all(0.0 <= frac <= 1.0 for frac in profile.active_frac)


def test_fit_calibration_recovers_affine_map():
    fluid = [0.1, 0.3, 0.5, 0.7, 0.9]
    des = [0.8 * f + 0.05 for f in fluid]
    cal = fit_calibration(fluid, des)
    assert cal.scale == pytest.approx(0.8, abs=1e-9)
    assert cal.offset == pytest.approx(0.05, abs=1e-9)
    for f, d in zip(fluid, des):
        assert cal.apply(f) == pytest.approx(d, abs=1e-9)


def test_fit_calibration_degenerate_inputs():
    assert fit_calibration([], []) == FluidCalibration()
    cal = fit_calibration([0.5], [0.7])
    assert cal.apply(0.5) == pytest.approx(0.7, abs=1e-9)
    # Zero-variance fluid scores: offset-only fit, no blow-up.
    cal = fit_calibration([0.4, 0.4, 0.4], [0.2, 0.6, 0.7])
    assert cal.apply(0.4) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError):
        fit_calibration([0.1, 0.2], [0.1])


def test_spearman_rank_correlation_basics():
    assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(
        1.0
    )
    assert spearman_rank_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(
        -1.0
    )
    assert spearman_rank_correlation([5], [9]) == 1.0
    with pytest.raises(ValueError):
        spearman_rank_correlation([1, 2], [1])


# CPython 3.12's builtin sum() is Neumaier-compensated: sum([0.1] * 10)
# is 1.0 there and 0.9999999999999999 before.  The screen's scores, and
# so which candidates it sends to the DES, must not depend on that.


def test_mean_utility_adds_left_to_right():
    result = FluidResult(
        o_tp=[], o_rtt=[], o_pfc=[], utilities=[0.1] * 10, utility=0.0, steps=0
    )
    assert result.mean_utility() == 0.9999999999999999 / 10
    assert result.mean_utility(skip=10) == 0.0


def test_batch_utility_is_the_left_to_right_mean():
    spec = ANCHOR_SCENARIOS[0]
    anchors = default_anchor_params(default_params())
    for result in FluidModel(DEFAULT_DT).evaluate_batch(spec, anchors):
        assert result.utility == ordered_sum(result.utilities) / len(result.utilities)


def test_spearman_sums_left_to_right():
    # Ranks are half-integers, so every sum here is exact either way;
    # the coefficient is the ordered fold's, on every version.
    fluid = [0.3, 0.1, 0.2, 0.2, 0.9]
    des = [0.5, 0.4, 0.1, 0.3, 0.8]
    ra, rb = [3.0, 0.0, 1.5, 1.5, 4.0], [3.0, 2.0, 0.0, 1.0, 4.0]
    ma, mb = ordered_sum(ra) / 5, ordered_sum(rb) / 5
    cov = ordered_sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = math.sqrt(ordered_sum((x - ma) ** 2 for x in ra))
    vb = math.sqrt(ordered_sum((y - mb) ** 2 for y in rb))
    assert spearman_rank_correlation(fluid, des) == cov / (va * vb)
