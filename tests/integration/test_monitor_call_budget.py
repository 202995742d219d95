"""Calls per monitor-interval close: a fixed budget.

Closing a monitor interval (``FsdAggregator.collect``: every switch's
buffered packets into the stacked sketch, read and reset, the flow
table's advance, every FSD and the merged FSD) handles a few hundred
packets in the closed loop, so its cost is the number of calls it
makes, not the work per element; ~1 ms of DES between two closes also
leaves each call's code cold.  Wall time on a shared box moves by
20-50 % between runs, but the number of calls does not: this test
counts every call made from a frame in ``repro/`` while ``collect``
runs and holds the mean per close to a budget.

A call is counted at its caller, so a numpy function counts once
whether numpy implements it in C (a ``c_call`` event in the caller's
frame) or in Python (a ``call`` event whose parent frame is the
caller); what it calls in turn is numpy's, not ours.  Operators and
indexing are not calls.  CPython 3.12 inlines comprehensions, which
only lowers the count.

Two streams: the quick Paraleon influx run (the loop-influx benchmark
workload at its quick size, 8 closes of up to ~1.1k packets on 2
ToRs), and a fixed two-agent stream of 600 packets per agent and
interval from 200 flows into 256 heavy buckets, where collisions,
Light-Part spills, ostracism and flagged residents are common.  At the
commit before each close became one pass per stage these read 235.0
and 286.8 calls per close (numpy 2.4, CPython 3.11); the merged code
read 108.2 and 155.8.  With the flow table's columns handed to the FSD
pass unconverted, the sketch kernel on fresh registers of the batch's
buckets while every register is empty, and one range check, they read
89.1 and 151.8, and the budgets add ~10 % for other numpy and CPython
versions.  The stream's ostracism rounds rebase both vote
registers with ``take`` calls where they indexed before, which a
profiler counts and an index does not, so its count barely moved
while its operations fell.  A call made from C — a callee of ``map()``
— is not seen at all, so the counts are read beside wall time: a
standalone replay of seed 7's loop-influx buffers closes in 188 → 151
µs at the median (2-vCPU Xeon, same process, alternating).
"""

from __future__ import annotations

import collections
import gc
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import repro
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import install_influx, make_network, make_tuner
from repro.monitor.agent import SwitchAgent
from repro.monitor.aggregate import FsdAggregator
from repro.sketch.elastic import ElasticSketchConfig
from tests.reference_switch import observe

INFLUX_CALLS_PER_CLOSE_BUDGET = 98
STREAM_CALLS_PER_CLOSE_BUDGET = 167

_REPRO = str(Path(repro.__file__).resolve().parent)


def _count_collect_calls(monkeypatch, run):
    """Calls per ``FsdAggregator.collect`` while ``run()`` drives it,
    and the most frequent callees."""
    per_close = []
    callees = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(_REPRO):
                per_close[-1] += 1
                callees[frame.f_code.co_name] += 1
        elif event == "c_call" and frame.f_code.co_filename.startswith(_REPRO):
            per_close[-1] += 1
            callees[getattr(arg, "__name__", repr(arg))] += 1

    collect = FsdAggregator.collect

    def counted(self, now):
        per_close.append(0)
        sys.setprofile(profile)
        try:
            return collect(self, now)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(FsdAggregator, "collect", counted)
    # A collection mid-close could call finalizers of other objects.
    gc.collect()
    gc.disable()
    try:
        run()
    finally:
        gc.enable()
    return per_close, callees


def _influx():
    network = make_network("small", seed=1)
    install_influx(network, influx_start=0.003, influx_duration=0.003)
    ExperimentRunner(network, make_tuner("paraleon")).run(0.008)


def _two_agent_stream():
    network = make_network("small", seed=3)
    config = ElasticSketchConfig(heavy_buckets=256, light_width=256)
    agents = [SwitchAgent(tor, sketch_config=config, tau=200_000) for tor in network.tors[:2]]
    aggregator = FsdAggregator(agents)
    rng = np.random.default_rng(7)
    for interval in range(8):
        for agent in agents:
            for flow_id, nbytes in zip(
                rng.integers(0, 200, 600).tolist(), rng.integers(64, 1500, 600).tolist()
            ):
                # The switch's ingress observation, fed a bare packet.
                observe(
                    agent.switch,
                    SimpleNamespace(flow_id=flow_id, wire_size=nbytes, sketch_marked=False),
                )
        aggregator.collect(interval * 1e-3)
    assert sum(a.sketch.evictions for a in agents) > 0


def _check(per_close, callees, budget, closes):
    assert len(per_close) == closes
    mean = sum(per_close) / len(per_close)
    top = ", ".join(
        f"{name} {count / len(per_close):.1f}" for name, count in callees.most_common(10)
    )
    assert mean <= budget, (
        f"{mean:.1f} calls per monitor-interval close (budget {budget}); "
        f"per close: {top}"
    )


def test_influx_interval_close_stays_within_its_call_budget(monkeypatch):
    per_close, callees = _count_collect_calls(monkeypatch, _influx)
    _check(per_close, callees, INFLUX_CALLS_PER_CLOSE_BUDGET, closes=8)


def test_stacked_stream_interval_close_stays_within_its_call_budget(monkeypatch):
    per_close, callees = _count_collect_calls(monkeypatch, _two_agent_stream)
    _check(per_close, callees, STREAM_CALLS_PER_CLOSE_BUDGET, closes=8)
