"""Unit tests for the DCQCN parameter set and RP state machine."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.dcqcn import DcqcnParams, DcqcnRp, ecn_mark_probability
from repro.simulator.engine import Simulator
from repro.simulator.units import gbps, kb, mbps, ms, us
from tests.eager_rp import EagerDcqcnRp

LINE = gbps(10.0)


def make_rp(sim, params):
    return DcqcnRp(sim, LINE, params)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_default_params_valid():
    DcqcnParams().validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"rpg_ai_rate": 0.0},
        {"rpg_threshold": 0},
        {"dce_tcp_g": 0.0},
        {"dce_tcp_g": 1.5},
        {"initial_alpha": 0.0},
        {"min_dec_fac": 0.0},
        {"k_min": 300_000, "k_max": 200_000},
        {"p_max": 0.0},
        {"p_max": 1.5},
        {"min_time_between_cnps": -1.0},
        {"rpg_time_reset": 0.0},
        {"dce_tcp_rtt": 0.0},
    ],
)
def test_invalid_params_rejected(overrides):
    with pytest.raises(ValueError):
        DcqcnParams(**overrides).validate()


def test_copy_and_dict_roundtrip():
    params = DcqcnParams()
    copy = params.copy(k_min=kb(50.0))
    assert copy.k_min == kb(50.0)
    assert params.k_min != copy.k_min  # original untouched
    assert DcqcnParams.from_dict(params.as_dict()) == params


# ---------------------------------------------------------------------------
# ECN marking curve
# ---------------------------------------------------------------------------


def test_marking_curve_endpoints(params):
    assert ecn_mark_probability(0, params) == 0.0
    assert ecn_mark_probability(params.k_min, params) == 0.0
    assert ecn_mark_probability(params.k_max, params) == 1.0
    assert ecn_mark_probability(params.k_max * 10, params) == 1.0


def test_marking_curve_midpoint(params):
    mid = (params.k_min + params.k_max) // 2
    expected = params.p_max * (mid - params.k_min) / (params.k_max - params.k_min)
    assert ecn_mark_probability(mid, params) == pytest.approx(expected)


@given(queue=st.integers(min_value=0, max_value=10_000_000))
def test_marking_probability_in_unit_range(queue):
    params = DcqcnParams()
    p = ecn_mark_probability(queue, params)
    assert 0.0 <= p <= 1.0


@given(
    q1=st.integers(min_value=0, max_value=5_000_000),
    q2=st.integers(min_value=0, max_value=5_000_000),
)
def test_marking_probability_monotone(q1, q2):
    params = DcqcnParams()
    low, high = sorted((q1, q2))
    assert ecn_mark_probability(low, params) <= ecn_mark_probability(high, params)


# ---------------------------------------------------------------------------
# Reaction point dynamics
# ---------------------------------------------------------------------------


def test_rp_starts_at_line_rate(sim, params):
    rp = make_rp(sim, params)
    assert rp.rc == LINE
    assert rp.rt == LINE
    assert rp.alpha == params.initial_alpha


def test_cnp_cuts_rate_and_raises_alpha(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    alpha_before = rp.alpha
    rp.on_cnp()
    assert rp.rc < LINE
    assert rp.rt == LINE  # target remembers the pre-cut rate
    expected_alpha = (1 - params.dce_tcp_g) * alpha_before + params.dce_tcp_g
    assert rp.alpha == pytest.approx(expected_alpha)
    assert rp.rate_cuts == 1


def test_rate_cut_magnitude_alpha_half(sim):
    params = DcqcnParams(initial_alpha=0.8, min_dec_fac=0.9)
    rp = make_rp(sim, params)
    rp.start()
    rp.on_cnp()
    # alpha updated first, then cut by alpha/2.
    new_alpha = (1 - params.dce_tcp_g) * 0.8 + params.dce_tcp_g
    assert rp.rc == pytest.approx(LINE * (1 - new_alpha / 2))


def test_min_dec_fac_bounds_the_cut(sim):
    params = DcqcnParams(initial_alpha=1.0, min_dec_fac=0.25)
    rp = make_rp(sim, params)
    rp.start()
    rp.on_cnp()
    # alpha/2 would be ~0.5 but min_dec_fac caps the cut at 25%.
    assert rp.rc == pytest.approx(LINE * 0.75)


def test_rate_reduce_monitor_period_limits_cut_frequency(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    rp.on_cnp()
    rp.on_cnp()  # same instant: alpha moves, rate does not
    assert rp.rate_cuts == 1
    assert rp.cnps_received == 2
    sim.run_until(params.rate_reduce_monitor_period * 1.01)
    rp.on_cnp()
    assert rp.rate_cuts == 2


def test_rate_floor(sim):
    params = DcqcnParams(rate_reduce_monitor_period=0.0)
    rp = make_rp(sim, params)
    rp.start()
    for _ in range(200):
        rp.on_cnp()
    assert rp.rc >= params.rpg_min_rate


def test_alpha_decays_without_cnps(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    rp.on_cnp()
    alpha_after_cnp = rp.alpha
    sim.run_until(params.dce_tcp_rtt * 10.5)
    assert rp.alpha < alpha_after_cnp


def test_alpha_timer_skips_decay_when_cnp_seen(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    sim.run_until(params.dce_tcp_rtt * 0.5)
    rp.on_cnp()
    alpha = rp.alpha
    sim.run_until(params.dce_tcp_rtt * 1.01)  # first timer tick: CNP seen
    assert rp.alpha == pytest.approx(alpha)
    sim.run_until(params.dce_tcp_rtt * 2.02)  # second tick: no CNP, decay
    assert rp.alpha < alpha


def test_timer_increase_recovers_rate(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    rp.on_cnp()
    cut_rate = rp.rc
    # Run long enough for fast recovery + additive increase.
    sim.run_until(params.rpg_time_reset * (params.rpg_threshold + 3))
    assert rp.rc > cut_rate
    assert rp.increase_events >= params.rpg_threshold


def test_fast_recovery_approaches_target(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    rp.on_cnp()
    target = rp.rt
    sim.run_until(params.rpg_time_reset * (params.rpg_threshold - 1) * 1.01)
    # Still in fast recovery: rc converges toward rt without overshoot.
    assert rp.rc <= target
    assert rp.rt == target


def test_byte_counter_triggers_increase(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    rp.on_cnp()
    before = rp.increase_events
    rp.on_packet_sent(params.rpg_byte_reset * 2)
    assert rp.increase_events == before + 2  # two byte stages crossed


def test_hyper_increase_after_both_stages(sim):
    params = DcqcnParams(rpg_threshold=1, rate_reduce_monitor_period=0.0)
    rp = make_rp(sim, params)
    rp.start()
    for _ in range(4):  # drive rc (and hence rt after the last cut) low
        rp.on_cnp()
    rt_before = rp.rt
    assert rt_before < LINE
    rp.on_packet_sent(params.rpg_byte_reset)     # byte stage 1
    sim.run_until(params.rpg_time_reset * 1.01)  # time stage 1 -> hyper
    assert rp.rt >= min(rt_before + params.rpg_ai_rate, LINE)
    assert rp.rt > rt_before


def test_rate_never_exceeds_line_rate(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    for _ in range(50):
        rp.on_packet_sent(params.rpg_byte_reset)
    assert rp.rc <= LINE
    assert rp.rt <= LINE


def test_stop_cancels_timers(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    rp.stop()
    alpha = rp.alpha
    rc = rp.rc
    sim.run_until(params.rpg_time_reset * 10)
    assert rp.alpha == alpha
    assert rp.rc == rc
    rp.on_cnp()  # ignored after stop
    assert rp.cnps_received == 0


def test_rp_timers_post_no_engine_events(sim, params):
    rps = [make_rp(sim, params) for _ in range(16)]
    for rp in rps:
        rp.start()
    assert sim.pending_events == 0
    for rp in rps:
        rp.on_cnp()
    sim.run_until(params.dce_tcp_rtt * 3.5)
    assert len({rp.alpha for rp in rps}) == 1          # all ticked alike
    assert rps[0].alpha < rps[0].params.initial_alpha
    assert sim.events_dispatched == 0
    assert sim.pending_events == 0


def test_rate_cut_supersedes_the_pending_increase_tick(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    sim.run_until(params.rpg_time_reset * 0.5)
    rp.on_cnp()                       # cut: increase timer restarts now
    sim.run_until(params.rpg_time_reset * 1.25)
    assert rp.increase_events == 0    # the original deadline is stale
    sim.run_until(params.rpg_time_reset * 1.75)
    assert rp.increase_events == 1    # fires one full period after the cut


def test_restart_after_stop_ignores_ticks_from_the_first_life(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    sim.run_until(params.dce_tcp_rtt * 0.5)
    rp.stop()
    rp.start()                        # new deadlines, half a period later
    rp.on_cnp()
    alpha = rp.alpha
    sim.run_until(params.dce_tcp_rtt * 1.25)   # first life's tick: stale
    assert rp.alpha == alpha
    sim.run_until(params.dce_tcp_rtt * 2.75)   # CNP-seen tick, then a decay
    assert rp.alpha < alpha


def test_cut_resets_increase_stages(sim, params):
    rp = make_rp(sim, params)
    rp.start()
    rp.on_packet_sent(params.rpg_byte_reset * (params.rpg_threshold + 1))
    rp.on_cnp()
    rt_after_cut = rp.rt
    rp.on_packet_sent(params.rpg_byte_reset)
    # One byte stage after the cut: fast recovery, no additive bump.
    assert rp.rt == rt_after_cut


@settings(deadline=None, max_examples=30)
@given(
    events=st.lists(
        st.sampled_from(["cnp", "bytes", "time"]), min_size=1, max_size=120
    )
)
def test_rp_invariants_under_arbitrary_event_sequences(events):
    """Property: rate in [floor, line], alpha in (0, 1], rt >= floor."""
    sim = Simulator()
    params = DcqcnParams()
    rp = DcqcnRp(sim, LINE, params)
    rp.start()
    for event in events:
        if event == "cnp":
            rp.on_cnp()
        elif event == "bytes":
            rp.on_packet_sent(params.rpg_byte_reset)
        else:
            sim.run_until(sim.now + params.rpg_time_reset * 1.01)
        assert params.rpg_min_rate <= rp.rc <= LINE
        assert 0.0 < rp.alpha <= 1.0
        assert rp.rt <= LINE


# ---------------------------------------------------------------------------
# Lazy timers against the eager per-tick reference
# ---------------------------------------------------------------------------

#: Knob swaps over the tuning space's ranges of the timer-driven knobs;
#: 55 us (= dce_tcp_rtt) makes both timers of a QP expire together.
_SWAPS = st.fixed_dictionaries(
    {
        "dce_tcp_g": st.sampled_from([1.0 / 1024, 1.0 / 256, 1.0 / 16])
        | st.floats(1.0 / 1024, 1.0 / 16),
        "rpg_time_reset": st.sampled_from([us(50), us(55), us(300), us(1200)])
        | st.floats(us(50), us(1200)),
        "rpg_threshold": st.integers(1, 10),
        "rpg_ai_rate": st.floats(mbps(10), mbps(500)),
        "rpg_hai_rate": st.floats(mbps(50), mbps(2000)),
    }
)

_RP_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["start", "stop", "cnp"]), st.none()),
        st.tuples(st.just("sent"), st.integers(1, 40_000)),
        st.tuples(st.just("swap"), _SWAPS),
        st.tuples(st.just("run"), st.floats(0.0, ms(2.0))),
        st.tuples(st.just("deadline"), st.sampled_from(["alpha", "increase"])),
    ),
    min_size=1,
    max_size=80,
)


def _observed(rp):
    """Every timer-driven field; the public reads come first and catch
    a lazy QP up, so the private ones after them are as of ``now``."""
    return (
        rp.rc, rp.rt, rp.alpha, rp.increase_events,
        rp._byte_counter, rp._byte_stage, rp._time_stage, rp._increase_iter,
        rp._cnp_seen_since_alpha_timer, rp._alpha_deadline,
        rp._increase_deadline, rp.cnps_received, rp.rate_cuts, rp.active,
    )


@settings(deadline=None, max_examples=150)
@given(ops=_RP_OPS)
def test_lazy_timers_match_the_eager_reference(ops):
    """Property: whatever interleaving of start/stop, CNPs, sent bytes,
    knob swaps and clock advances (also to the exact instant a timer
    expires), the lazy RP — whether read after every step or only at
    the end — is bit-equal to one that runs every tick as an event, and
    ``rc in [rpg_min_rate, line]``, ``alpha in (0, 1]`` hold throughout.
    """
    current = [DcqcnParams()]
    eager_sim, lazy_sim = Simulator(), Simulator()
    eager = EagerDcqcnRp(eager_sim, LINE, current[0])
    read = DcqcnRp(lazy_sim, LINE, current[0])     # read every step
    quiet = DcqcnRp(lazy_sim, LINE, current[0])    # read at the end
    rps = (eager, read, quiet)
    for kind, arg in ops:
        if kind == "start":
            for rp in rps:
                rp.start()
        elif kind == "stop":
            for rp in rps:
                rp.stop()
        elif kind == "cnp":
            for rp in rps:
                rp.on_cnp()
        elif kind == "sent":
            for rp in rps:
                rp.on_packet_sent(arg)
        elif kind == "swap":
            current[0] = current[0].copy(**arg)
            for rp in rps:                    # what Host.params' setter does
                rp.params = current[0]
        else:
            if kind == "run":
                end = eager_sim.now + arg
            else:
                end = getattr(eager, f"_{arg}_deadline")
                if end == float("inf"):
                    continue
            eager_sim.run_until(end)
            lazy_sim.run_until(end)
        assert _observed(read) == _observed(eager)
        assert current[0].rpg_min_rate <= read.rc <= LINE
        assert 0.0 < read.alpha <= 1.0
        assert lazy_sim.pending_events == 0
    assert _observed(quiet) == _observed(eager)


def test_as_dict_reads_every_field_in_declaration_order():
    params = DcqcnParams(rpg_ai_rate=1.5e7, k_min=12_345, p_max=0.25)
    assert params.as_dict() == {
        f.name: getattr(params, f.name) for f in dataclasses.fields(DcqcnParams)
    }
    assert list(params.as_dict()) == [f.name for f in dataclasses.fields(DcqcnParams)]
    assert DcqcnParams.from_dict(params.as_dict()) == params
