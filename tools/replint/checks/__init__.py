"""Concrete replint checks and the default suite factory."""

from __future__ import annotations

from typing import List, Optional

from tools.replint.checks.contracts import ContractSyncCheck
from tools.replint.checks.determinism import UnseededRngCheck, WallClockCheck
from tools.replint.checks.envreg import EnvRegistryCheck
from tools.replint.checks.forkreach import ForkReachabilityCheck
from tools.replint.checks.forksafety import ForkSafetyCheck
from tools.replint.checks.handles import DiscardedHandleCheck
from tools.replint.checks.hygiene import SilentExceptCheck
from tools.replint.checks.layering import LayeringCheck
from tools.replint.checks.poolboundary import PoolBoundaryCheck
from tools.replint.checks.tainting import DeterminismTaintCheck
from tools.replint.checks.telemetry import TelemetrySyncCheck
from tools.replint.config import ReplintConfig
from tools.replint.core import Check

__all__ = [
    "UnseededRngCheck",
    "WallClockCheck",
    "TelemetrySyncCheck",
    "EnvRegistryCheck",
    "ForkSafetyCheck",
    "SilentExceptCheck",
    "PoolBoundaryCheck",
    "LayeringCheck",
    "DeterminismTaintCheck",
    "ForkReachabilityCheck",
    "ContractSyncCheck",
    "DiscardedHandleCheck",
    "default_checks",
]


def default_checks(
    disable: Optional[List[str]] = None,
    config: Optional[ReplintConfig] = None,
) -> List[Check]:
    """The full suite, minus any ids in ``disable``.

    ``config`` overrides ``tools/replint/layers.toml`` for the
    graph-powered checks (fixture suites pass their own).
    """
    suite: List[Check] = [
        UnseededRngCheck(),
        WallClockCheck(),
        TelemetrySyncCheck(),
        EnvRegistryCheck(),
        ForkSafetyCheck(),
        SilentExceptCheck(),
        PoolBoundaryCheck(),
        LayeringCheck(config=config),
        DeterminismTaintCheck(config=config),
        ForkReachabilityCheck(config=config),
        ContractSyncCheck(config=config),
        DiscardedHandleCheck(),
    ]
    if disable:
        off = {d.strip().upper() for d in disable}
        suite = [c for c in suite if c.id not in off]
    return suite
