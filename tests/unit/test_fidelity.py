"""The fluid screen: ratio validation, selection, and batch pruning."""

import inspect
import math
import random

import pytest

from repro.parallel.sa import batched_anneal
from repro.parallel.sweeps import offline_grid_search_parallel
from repro.parallel.tasks import ScenarioSpec
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.fidelity import SurrogateScreen, default_anchor_params
from repro.tuning.parameters import default_params, default_space

SPEC = ScenarioSpec(workload="hadoop", scale="small", duration=0.01, seed=1)


# -- screen_ratio --------------------------------------------------------


def test_config_defaults_are_full_fidelity():
    """Both search drivers run the DES for every candidate unless a
    screen ratio is passed."""
    for driver in (batched_anneal, offline_grid_search_parallel):
        default = inspect.signature(driver).parameters["screen_ratio"].default
        assert default is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"screen_ratio": 0.5},
        {"screen_ratio": 0.0},
        {"screen_ratio": -3.0},
        {"screen_ratio": math.nan},
        {"screen_ratio": math.inf},
        {"screen_ratio": "screen"},
    ],
)
def test_config_rejects_invalid_fields(kwargs):
    with pytest.raises(ValueError, match="screen_ratio|could not convert"):
        SurrogateScreen(SPEC, **kwargs)


def test_config_modes_are_recognized():
    """Any finite ratio >= 1 is a screen; 1 keeps every candidate."""
    for ratio in (1.0, 1.4, 3.0, 3):
        assert SurrogateScreen(SPEC, ratio).screen_ratio == float(ratio)


def test_proposals_for_scales_only_in_screen_mode():
    assert SurrogateScreen(SPEC, 3.0).proposals_for(4) == 12
    assert SurrogateScreen(SPEC, 1.0).proposals_for(4) == 4
    # Rounds to nearest, never below k.
    assert SurrogateScreen(SPEC, 1.4).proposals_for(2) == 3


# -- SurrogateScreen -----------------------------------------------------


def test_select_is_deterministic_and_sorted():
    screen = SurrogateScreen(SPEC, 3.0)
    anchors = default_anchor_params(default_params())
    first = screen.select(anchors, 3)
    second = screen.select(anchors, 3)
    assert first == second
    survivors, scores = first
    assert len(survivors) == 3
    assert survivors == sorted(survivors)
    assert len(scores) == len(anchors)
    # Survivors really are the top-scoring candidates.
    top = sorted(
        sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:3]
    )
    assert survivors == top


def test_select_clamps_keep_and_rejects_zero():
    screen = SurrogateScreen(SPEC, 3.0)
    anchors = default_anchor_params(default_params())[:4]
    survivors, _ = screen.select(anchors, 100)
    assert survivors == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        screen.select(anchors, 0)


def test_observe_updates_calibration_and_spearman():
    screen = SurrogateScreen(SPEC, 3.0)
    assert screen.n_observed == 0
    # Feed a perfectly affine fluid->DES relationship.
    for fluid in (0.2, 0.4, 0.6, 0.8):
        screen.observe(fluid, 0.5 * fluid + 0.1)
    assert screen.n_observed == 4
    assert screen.calibration.scale == pytest.approx(0.5, abs=1e-9)
    assert screen.calibration.offset == pytest.approx(0.1, abs=1e-9)
    assert screen.spearman == pytest.approx(1.0)
    assert screen.calibration.apply(0.6) == pytest.approx(0.4, abs=1e-9)


def test_default_anchor_params_are_valid_and_distinct():
    anchors = default_anchor_params(default_params())
    assert len(anchors) == 8
    for params in anchors:
        params.validate()
    assert len({repr(p.as_dict()) for p in anchors}) == len(anchors)


# -- Annealer screen_batch ----------------------------------------------


def _annealer():
    annealer = ImprovedAnnealer(
        default_space(),
        AnnealingSchedule(90.0, 30.0, 0.85, 4),
        rng=random.Random(3),
    )
    annealer.begin(default_params(), 0.5)
    return annealer


def test_screen_batch_prunes_pending_candidates():
    annealer = _annealer()
    batch = annealer.propose_batch(6)
    survivors = annealer.screen_batch([1, 4])
    assert survivors == [batch[1], batch[4]]
    # feedback now expects exactly one utility per survivor.
    with pytest.raises(ValueError):
        annealer.feedback_batch([0.5, 0.6, 0.7])
    annealer.feedback_batch([0.5, 0.6])
    assert annealer.state.best_util >= 0.5


def test_screen_batch_requires_pending_proposal():
    annealer = _annealer()
    with pytest.raises(RuntimeError):
        annealer.screen_batch([0])


@pytest.mark.parametrize(
    "indices", [[], [2, 1], [0, 0], [-1, 2], [0, 6]]
)
def test_screen_batch_rejects_bad_indices(indices):
    annealer = _annealer()
    annealer.propose_batch(6)
    with pytest.raises(ValueError):
        annealer.screen_batch(indices)
