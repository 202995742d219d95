"""Microbenchmarks for the individual components.

These are true pytest-benchmark measurements (many rounds) of the hot
paths: sketch insert/query, control-plane classification, KL
computation, SA mutation, and the raw event engine — the numbers that
determine whether the paper's 1 ms monitor interval is feasible.
"""

from __future__ import annotations

import random

import numpy as np

from repro.monitor.fsd import FlowSizeDistribution, kl_divergence
from repro.monitor.states import ColumnarSlidingWindowClassifier
from repro.simulator.engine import Simulator
from repro.simulator.units import kb
from repro.sketch.elastic import ElasticSketch, ElasticSketchConfig
from repro.tuning.parameters import default_params, default_space


def _packets(seed: int, flows: int):
    """One 1 024-packet batch: ``(flow_ids, nbytes)`` int64 vectors."""
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, flows, size=1024, dtype=np.int64),
        rng.integers(64, 4096, size=1024, dtype=np.int64),
    )


def test_micro_elastic_sketch_insert(benchmark):
    sketch = ElasticSketch(ElasticSketchConfig(heavy_buckets=1024))
    flow_ids, nbytes = _packets(0, 5000)
    benchmark(sketch.insert_batch, flow_ids, nbytes)


def test_micro_elastic_sketch_read_and_reset(benchmark):
    flow_ids, nbytes = _packets(1, 400)

    def cycle():
        sketch = ElasticSketch(ElasticSketchConfig(heavy_buckets=512))
        sketch.insert_batch(flow_ids, nbytes)
        return sketch.read_and_reset_arrays()

    ids, _ = benchmark(cycle)
    assert ids.size


def test_micro_sliding_window_update(benchmark):
    classifier = ColumnarSlidingWindowClassifier(tau=kb(100.0), delta=3)
    rng = random.Random(2)
    ids = np.arange(300, dtype=np.int64)
    intervals = [
        np.array([rng.randrange(0, 50_000) for _ in range(300)], dtype=np.int64)
        for _ in range(16)
    ]
    index = {"i": 0}

    def update():
        i = index["i"] = (index["i"] + 1) % 16
        classifier.update_arrays(ids, intervals[i])

    benchmark(update)


def test_micro_kl_divergence(benchmark):
    rng = random.Random(3)
    a = FlowSizeDistribution.from_sizes(
        {fid: rng.randrange(100, 10_000_000) for fid in range(400)}
    )
    b = FlowSizeDistribution.from_sizes(
        {fid: rng.randrange(100, 10_000_000) for fid in range(400)}
    )
    value = benchmark(kl_divergence, a, b)
    assert value >= 0.0


def test_micro_sa_mutation(benchmark):
    space = default_space()
    rng = random.Random(4)
    params = default_params()

    def mutate():
        return space.mutate(params, rng, 0.8)

    result = benchmark(mutate)
    result.validate()


def test_micro_event_engine_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] < 10_000:
                sim.post(1e-6, tick)

        sim.post(1e-6, tick)
        sim.run()
        return count["n"]

    events = benchmark(run_10k_events)
    assert events == 10_000
