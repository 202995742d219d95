"""Sketch-based and sampling-based traffic measurement substrates."""

from repro.sketch.hashing import hash32_mixed, hash_family_seeds, mix_seed
from repro.sketch.elastic import ElasticSketch, ElasticSketchConfig, ElasticStack
from repro.sketch.netflow import NetFlowMonitor, NetFlowConfig

__all__ = [
    "hash32_mixed",
    "hash_family_seeds",
    "mix_seed",
    "ElasticSketch",
    "ElasticSketchConfig",
    "ElasticStack",
    "NetFlowMonitor",
    "NetFlowConfig",
]
