"""Python frames per packet-hop on the quick all-to-all: a fixed budget.

Simulator speed is what bounds every tuning loop, but wall time on a
shared box moves by 20-50 % between runs, so a frame that creeps back
onto the per-hop path hides in the noise.  The number of Python frames
the hop costs does not move: this test counts every ``"call"`` event
``sys.setprofile`` reports while the quick all-to-all runs, divides by
the packet-hops, and holds it to the budget of the current hop path.

The hop is two events (serialization finish, arrival), each one Python
frame in the common case; on top of that the switch releases and
charges the buffer (``dequeued`` and the DT check), the sending QP's
reaction point counts its bytes, and ECN coins, CNPs, wake timers and
the runner's per-interval work add the rest.  At the commit before
the hop went one-frame-per-event this read 11.14, and 5.90 before the
reaction point held its knobs (no ``params_ref`` call per packet) and
the host's pacing wake became an uncancellable ``post_at`` (no
handle object per wake); the budget below is the merged code's 5.36 with no
room for a frame per switch hop (0.6), per host packet (0.34) or
either of those two to come back.  CPython 3.12 inlines
comprehensions, which only lowers the count.
"""

from __future__ import annotations

import collections
import gc
import sys

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import make_network
from repro.simulator.units import mb
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce

FRAMES_PER_HOP_BUDGET = 5.40


def _count_frames():
    network = make_network("small", seed=1)
    AllToAllOnce(n_workers=8, flow_size=mb(2.0)).install(network)
    runner = ExperimentRunner(network, StaticTuner(default_params(), "default"))
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
        result = runner.run(0.002)
    finally:
        sys.setprofile(None)
        gc.enable()
    hops = sum(host.egress.link.tx_packets for host in network.hosts) + sum(
        egress.link.tx_packets
        for switch in network.switches
        for egress in switch.egress
    )
    return calls, hops, result.events


def test_hop_path_stays_within_its_frame_budget():
    calls, hops, events = _count_frames()
    # The workload itself must not have moved (tests/integration/
    # test_golden_digests.py pins the same run).
    assert (hops, events) == (12530, 25292)
    per_hop = sum(calls.values()) / hops
    top = ", ".join(
        f"{name} {count / hops:.2f}" for name, count in calls.most_common(8)
    )
    assert per_hop <= FRAMES_PER_HOP_BUDGET, (
        f"{per_hop:.3f} Python frames per hop (budget "
        f"{FRAMES_PER_HOP_BUDGET}); per hop: {top}"
    )
