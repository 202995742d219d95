"""Python frames per packet-hop on two quick runs: fixed budgets.

Simulator speed is what bounds every tuning loop, but wall time on a
shared box moves by 20-50 % between runs, so a frame that creeps back
onto the per-hop path hides in the noise.  The number of Python frames
the hop costs does not move: these tests count every ``"call"`` event
``sys.setprofile`` reports while a run goes, divide by the
packet-hops, and hold it to the budget of the current hop path.

The hop is two events (serialization finish, arrival), each one Python
frame in the common case: a switch port's ``transmit`` releases the
finished packet and runs the DT rule in its own body, as
``Switch.receive`` does after the charge, so a switch hop adds no frame
unless a PFC signal is due.  On top of that the sending QP's reaction
point counts its bytes, and ECN coins above ``k_min``, CNPs, wake
timers, RP catch-ups and the runner's per-interval work add the rest.

The quick all-to-all (``small``, 8 workers, 2 ms, frozen parameters)
read 11.14 before the hop went one frame per event, 5.90 before the
reaction point held its knobs and the host's pacing wake became a
``post_at``, and 5.35 while the switch still called its dequeue
callback and its DT check out of line (1.80 frames per hop together).
It reads 3.53 now.  The quick influx run (``small``, seed 1, 8 ms,
Paraleon) adds a monitored ToR path (the TOS dedup mark and the
observation buffer), the pacing wakes of bursty senders and a
parameter swap every interval: it read 6.07 with those out of line
(the observation was 0.41 frames per hop) and reads 3.82 now.  Each
budget is its run's count on CPython 3.11 plus at most 0.05, far less
than a frame per switch hop (~0.6) or per host packet (~0.35).
CPython 3.12 inlines comprehensions, which only lowers the counts.
"""

from __future__ import annotations

import collections
import gc
import sys

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import install_influx, make_network, make_tuner
from repro.simulator.units import mb
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce

FRAMES_PER_HOP_BUDGET = 3.56
INFLUX_FRAMES_PER_HOP_BUDGET = 3.86


def _count_frames(network, runner, duration):
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"] += 1

    # A collection mid-run could call finalizers of earlier tests'
    # objects; with the collector off the count is the run's alone.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = runner.run(duration)
    finally:
        sys.setprofile(None)
        gc.enable()
    hops = sum(host.egress.link.tx_packets for host in network.hosts) + sum(
        egress.link.tx_packets
        for switch in network.switches
        for egress in switch.egress
    )
    return calls, hops, result.events


def _assert_within(calls, hops, budget):
    per_hop = sum(calls.values()) / hops
    top = ", ".join(
        f"{name} {count / hops:.2f}" for name, count in calls.most_common(8)
    )
    assert per_hop <= budget, (
        f"{per_hop:.3f} Python frames per hop (budget {budget}); per hop: {top}"
    )


def test_hop_path_stays_within_its_frame_budget():
    network = make_network("small", seed=1)
    AllToAllOnce(n_workers=8, flow_size=mb(2.0)).install(network)
    runner = ExperimentRunner(network, StaticTuner(default_params(), "default"))
    calls, hops, events = _count_frames(network, runner, 0.002)
    # The workload itself must not have moved (tests/integration/
    # test_golden_digests.py pins the same run).
    assert (hops, events) == (12530, 25292)
    _assert_within(calls, hops, FRAMES_PER_HOP_BUDGET)


def test_influx_hop_path_stays_within_its_frame_budget():
    network = make_network("small", seed=1)
    install_influx(network, influx_start=0.003, influx_duration=0.003)
    runner = ExperimentRunner(network, make_tuner("paraleon"))
    calls, hops, events = _count_frames(network, runner, 0.008)
    assert (hops, events) == (33169, 70147)
    _assert_within(calls, hops, INFLUX_FRAMES_PER_HOP_BUDGET)
