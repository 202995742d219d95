"""Unit tests for the tuning parameter space (Table I relationships)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.units import kb
from repro.tuning.parameters import (
    Direction,
    ParameterSpace,
    ParameterSpec,
    default_params,
    default_space,
    expert_params,
)
from tests.loop_close import min_max_clamp, two_clamp_mutate


def test_spec_validation():
    with pytest.raises(ValueError):
        ParameterSpec("x", 10, 10, 1, Direction.INCREMENT)
    with pytest.raises(ValueError):
        ParameterSpec("x", 0, 10, 0, Direction.INCREMENT)


def test_spec_clamp_and_integral():
    spec = ParameterSpec("x", 0, 10, 1, Direction.INCREMENT, integral=True)
    assert spec.clamp(11.7) == 10
    assert spec.clamp(-3) == 0
    assert spec.clamp(4.6) == 5
    assert isinstance(spec.clamp(4.6), int)


def test_spec_move_directions():
    spec = ParameterSpec("x", 0, 100, 10, Direction.INCREMENT)
    assert spec.move(50, toward_throughput=True, scale=1.0) == 60
    assert spec.move(50, toward_throughput=False, scale=0.5) == 45
    dec = ParameterSpec("y", 0, 100, 10, Direction.DECREMENT)
    assert dec.move(50, toward_throughput=True, scale=1.0) == 40


def test_space_covers_the_paper_parameters():
    space = default_space()
    # Table I's seven tuned knobs all present.
    for name in (
        "rpg_ai_rate",
        "rpg_hai_rate",
        "rate_reduce_monitor_period",
        "min_time_between_cnps",
        "k_min",
        "k_max",
        "p_max",
    ):
        assert name in space
    # Plus the additional RNIC knobs ("10+ parameters").
    assert len(space) >= 10


def test_throughput_friendly_directions_match_fig5():
    """Fig. 5: raising hai_rate / rrmp and lowering rpg_time_reset are
    the throughput-friendly moves; K_max raises throughput too."""
    space = default_space()
    assert space.specs["rpg_hai_rate"].tp_direction is Direction.INCREMENT
    assert (
        space.specs["rate_reduce_monitor_period"].tp_direction
        is Direction.INCREMENT
    )
    assert space.specs["rpg_time_reset"].tp_direction is Direction.DECREMENT
    assert space.specs["k_max"].tp_direction is Direction.INCREMENT
    assert space.specs["p_max"].tp_direction is Direction.DECREMENT


def test_expert_setting_is_throughput_friendly_vs_default():
    """Table I's relationships: every expert knob sits on the
    throughput-friendly side of the default."""
    default, expert = default_params(), expert_params()
    assert expert.rpg_ai_rate > default.rpg_ai_rate
    assert expert.rpg_hai_rate > default.rpg_hai_rate
    assert expert.rate_reduce_monitor_period > default.rate_reduce_monitor_period
    assert expert.min_time_between_cnps > default.min_time_between_cnps
    assert expert.k_min > default.k_min
    assert expert.k_max > default.k_max
    expert.validate()
    default.validate()


def test_clamp_repairs_kmin_above_kmax():
    space = default_space()
    broken = default_params().copy(k_min=500_000, k_max=100_000)
    fixed = space.clamp(broken)
    assert fixed.k_min < fixed.k_max
    fixed.validate()


def test_mutate_rejects_bad_probability():
    space = default_space()
    with pytest.raises(ValueError):
        space.mutate(default_params(), random.Random(0), 1.5)


def test_mutation_changes_parameters():
    space = default_space()
    rng = random.Random(1)
    base = default_params()
    mutated = space.mutate(base, rng, 0.5)
    changed = sum(
        1
        for name in space.names
        if mutated.as_dict()[name] != base.as_dict()[name]
    )
    assert changed >= len(space) // 2


def test_guided_mutation_statistical_bias():
    """With tp_probability=1, every knob moves throughput-friendly."""
    space = default_space()
    rng = random.Random(2)
    base = default_params()
    mutated = space.mutate(base, rng, 1.0)
    base_d, mut_d = base.as_dict(), mutated.as_dict()
    for name, spec in space.specs.items():
        moved = mut_d[name] - base_d[name]
        if moved == 0:  # clamped at a bound
            continue
        assert (moved > 0) == (spec.tp_direction is Direction.INCREMENT)


def test_distance_metric():
    space = default_space()
    base = default_params()
    assert space.distance(base, base) == 0.0
    other = space.mutate(base, random.Random(3), 0.5)
    assert space.distance(base, other) > 0.0


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    tp_prob=st.floats(min_value=0.0, max_value=1.0),
    rounds=st.integers(min_value=1, max_value=12),
)
def test_mutation_always_within_bounds_and_valid(seed, tp_prob, rounds):
    """Property: arbitrary mutation chains stay in-bounds and valid."""
    space = default_space()
    rng = random.Random(seed)
    params = default_params()
    for _ in range(rounds):
        params = space.mutate(params, rng, tp_prob)
        values = params.as_dict()
        for name, spec in space.specs.items():
            assert spec.low <= values[name] <= spec.high
        params.validate()


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_point_valid(seed):
    space = default_space()
    point = space.random_point(random.Random(seed), default_params())
    point.validate()


# -- the one-clamp proposal against its reference (tests/loop_close.py) --


def _assert_same_proposal(space, params, seed, tp_prob, scale_range):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = space.mutate(params, rng, tp_prob, scale_range)
    want = two_clamp_mutate(space, params, ref_rng, tp_prob, scale_range)
    got_d, want_d = got.as_dict(), want.as_dict()
    assert list(got_d) == list(want_d)
    for name in want_d:
        assert (type(got_d[name]), repr(got_d[name])) == (
            type(want_d[name]), repr(want_d[name])
        ), name
    assert rng.getstate() == ref_rng.getstate()  # same draws, same order
    return got


def test_mutate_repairs_a_degenerate_ramp_like_the_reference():
    space = default_space()
    start = default_params().copy(k_min=kb(400.0), k_max=kb(60.0))
    got = _assert_same_proposal(space, start, 0, 0.5, (0.5, 1.0))
    # k_min cannot move below 380 KB nor k_max above 160 KB in one step.
    assert got.k_min == int(max(space.specs["k_min"].low, got.k_max - kb(8.0)))


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    tp_prob=st.floats(min_value=0.0, max_value=1.0),
    scale_range=st.tuples(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=30.0),
    ),
    k_min=st.integers(min_value=kb(8.0), max_value=kb(400.0)),
    k_max=st.integers(min_value=kb(60.0), max_value=kb(2000.0)),
    start_seed=st.integers(min_value=0, max_value=1000),
)
def test_mutate_equals_two_clamp_reference(
    seed, tp_prob, scale_range, k_min, k_max, start_seed
):
    """Any start (a degenerate ramp included), any guidance, any step
    range (wide ones pin knobs at their bounds): the same proposal."""
    space = default_space()
    start = space.random_point(random.Random(start_seed), default_params())
    start = start.copy(k_min=k_min, k_max=k_max)
    _assert_same_proposal(space, start, seed, tp_prob, scale_range)


@settings(deadline=None, max_examples=300)
@given(
    index=st.integers(min_value=0, max_value=len(default_space()) - 1),
    value=st.one_of(
        st.floats(allow_nan=False),
        st.integers(min_value=-(10**7), max_value=10**7),
    ),
)
def test_spec_clamp_equals_min_max(index, value):
    spec = list(default_space().specs.values())[index]
    got, want = spec.clamp(value), min_max_clamp(spec, value)
    assert (type(got), repr(got)) == (type(want), repr(want))
