"""Unit tests for ParaleonConfig — the values of Table III."""

from __future__ import annotations

import pytest

from repro.core.config import ParaleonConfig
from repro.simulator.units import mb, ms


def test_table_iii_defaults():
    config = ParaleonConfig()
    # Ternary flow state update.
    assert config.tau == mb(1.0)
    assert config.delta == 3
    # Tuning trigger threshold and weights.
    assert config.theta == pytest.approx(0.01)
    assert config.weights.w_tp == pytest.approx(0.2)
    assert config.weights.w_rtt == pytest.approx(0.5)
    assert config.weights.w_pfc == pytest.approx(0.3)
    # SA schedule.
    assert config.schedule.iterations_per_temp == 20
    assert config.schedule.cooling_rate == pytest.approx(0.85)
    assert config.schedule.initial_temp == pytest.approx(90.0)
    assert config.schedule.final_temp == pytest.approx(10.0)
    # Miscellaneous.
    assert config.monitor_interval == pytest.approx(ms(1.0))
    assert config.eta == pytest.approx(0.8)


@pytest.mark.parametrize(
    "overrides",
    [
        {"tau": 0},
        {"delta": 0},
        {"theta": -0.1},
        {"monitor_interval": 0.0},
        {"eta": 0.3},
        {"eta": 1.2},
        # ``nan <= 0`` is False: non-finite knobs must fail on their own.
        {"tau": float("nan")},
        {"tau": float("inf")},
        {"theta": float("nan")},
        {"theta": float("inf")},
        {"monitor_interval": float("nan")},
        {"monitor_interval": float("inf")},
        {"delta": float("nan")},
        {"delta": 2.5},
    ],
)
def test_invalid_config_rejected(overrides):
    (field,) = overrides
    with pytest.raises(ValueError, match=field):
        ParaleonConfig(**overrides)


def test_config_frozen():
    config = ParaleonConfig()
    with pytest.raises(Exception):
        config.tau = 5
