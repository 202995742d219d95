"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.engine import Simulator
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.topology import ClosSpec


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_spec() -> ClosSpec:
    """2 ToR x 1 spine x 4 hosts/ToR = 8 hosts."""
    return ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=4)


@pytest.fixture
def tiny_spec() -> ClosSpec:
    """2 ToR x 1 spine x 2 hosts/ToR = 4 hosts (fastest)."""
    return ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=2)


@pytest.fixture
def small_network(small_spec) -> Network:
    return Network(NetworkConfig(spec=small_spec, seed=1))


@pytest.fixture
def tiny_network(tiny_spec) -> Network:
    return Network(NetworkConfig(spec=tiny_spec, seed=1))


@pytest.fixture
def params() -> DcqcnParams:
    return DcqcnParams()


@pytest.fixture
def cores(monkeypatch):
    """``cores(n)``: the process may run on ``n`` cores, as the OS tells it.

    Patched at the OS call rather than at ``usable_cores`` so that both
    its importers — ``resolve_jobs``' clamp and the pool's steal rule —
    see the same machine.
    """

    def pretend(n: int) -> None:
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda _pid: range(n), raising=False
        )

    return pretend
