"""Unit tests for the utility function (Equation 1)."""

from __future__ import annotations

import pytest

from repro.simulator.stats import IntervalStats
from repro.tuning.utility import (
    DEFAULT_WEIGHTS,
    THROUGHPUT_SENSITIVE_WEIGHTS,
    UtilityWeights,
    utility,
    utility_components,
)


def make_stats(tp=0.5, rtt=0.8, pfc=1.0):
    return IntervalStats(
        t_start=0.0,
        t_end=1e-3,
        throughput_util=tp,
        norm_rtt=rtt,
        pfc_ok=pfc,
        mean_rtt=10e-6,
        rtt_samples=10,
        pause_fraction=1.0 - pfc,
        active_uplinks=4,
        total_tx_bytes=1000,
    )


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        UtilityWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        UtilityWeights(-0.2, 0.7, 0.5)


def test_table_iii_default_weights():
    assert DEFAULT_WEIGHTS.w_tp == pytest.approx(0.2)
    assert DEFAULT_WEIGHTS.w_rtt == pytest.approx(0.5)
    assert DEFAULT_WEIGHTS.w_pfc == pytest.approx(0.3)


def test_throughput_sensitive_weights_example():
    # The paper's LLM-training example: (0.5, 0.2, 0.3).
    assert THROUGHPUT_SENSITIVE_WEIGHTS.w_tp == pytest.approx(0.5)
    assert THROUGHPUT_SENSITIVE_WEIGHTS.w_rtt == pytest.approx(0.2)


def test_equation_one():
    stats = make_stats(tp=0.5, rtt=0.8, pfc=1.0)
    expected = 0.2 * 0.5 + 0.5 * 0.8 + 0.3 * 1.0
    assert utility(stats) == pytest.approx(expected)


def test_utility_in_unit_interval():
    assert 0.0 <= utility(make_stats(0, 0, 0)) <= 1.0
    assert utility(make_stats(1, 1, 1)) == pytest.approx(1.0)


def test_weights_change_the_ranking():
    elephant_friendly = make_stats(tp=0.9, rtt=0.5, pfc=0.9)
    mice_friendly = make_stats(tp=0.3, rtt=0.95, pfc=1.0)
    # Latency-weighted default prefers the mice-friendly interval...
    assert utility(mice_friendly, DEFAULT_WEIGHTS) > utility(
        elephant_friendly, DEFAULT_WEIGHTS
    )
    # ...while throughput-sensitive weights flip the preference.
    assert utility(elephant_friendly, THROUGHPUT_SENSITIVE_WEIGHTS) > utility(
        mice_friendly, THROUGHPUT_SENSITIVE_WEIGHTS
    )


def test_components():
    stats = make_stats(tp=0.4, rtt=0.7, pfc=0.95)
    parts = utility_components(stats)
    assert parts == {"O_TP": 0.4, "O_RTT": 0.7, "O_PFC": 0.95}


def test_snapshot_and_live_stats_evaluate_alike():
    """Both shapes of an interval give the same Equation (1), bit for bit."""
    stats = make_stats(tp=0.1, rtt=0.7, pfc=0.3)
    for weights in (DEFAULT_WEIGHTS, THROUGHPUT_SENSITIVE_WEIGHTS):
        assert repr(utility(stats.snapshot(), weights)) == repr(utility(stats, weights))
    assert utility_components(stats.snapshot()) == utility_components(stats)
