"""NetFlow-style sampled flow accounting (monitoring baseline).

The paper compares Paraleon's sketch pipeline against the monitoring
available on commodity switches: NetFlow with 1:100 packet sampling
and an O(seconds) export interval.  Two error sources follow directly
from that design and both show up in Fig. 10/11:

* sampling noise — a sampled packet stands in for ``sampling_rate``
  packets' worth of bytes, so small flows are frequently missed
  entirely and estimates are quantized;
* staleness — flow records are only exported once per
  ``export_interval``, far slower than traffic shifts in an RDMA
  cluster.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class NetFlowConfig:
    """Sampling and export settings (defaults per Section IV-B)."""

    sampling_rate: int = 100      # 1:N packet sampling
    export_interval: float = 1.0  # seconds
    seed: int = 0

    def __post_init__(self) -> None:
        # A fractional rate would construct and then fail randrange() on
        # the first packet; a NaN or infinite interval never exports.
        rate = self.sampling_rate
        if not (isinstance(rate, numbers.Integral) and rate >= 1):
            raise ValueError(f"sampling_rate must be an integer >= 1, got {rate}")
        if not (math.isfinite(self.export_interval) and self.export_interval > 0):
            raise ValueError(
                f"export_interval must be finite and positive, got {self.export_interval}"
            )


class NetFlowMonitor:
    """Per-switch sampled flow cache with periodic export."""

    def __init__(self, config: NetFlowConfig = NetFlowConfig()):
        self.config = config
        self._rng = random.Random(config.seed ^ 0x4E7F10)
        self._cache: Dict[int, int] = {}
        self._last_export: Dict[int, int] = {}
        self._last_export_time = 0.0
        self.packets_seen = 0
        self.packets_sampled = 0

    def observe_batch(self, flow_ids: np.ndarray, wire_bytes: np.ndarray) -> None:
        """Data-plane hook: sample 1:N packets, scale bytes up by N.

        One sampling draw per packet in arrival order, so a batch makes
        the same draws as the packets one at a time.
        """
        rate = self.config.sampling_rate
        draw = self._rng.randrange
        cache = self._cache
        ids = flow_ids.tolist()
        self.packets_seen += len(ids)
        for flow_id, nbytes in zip(ids, wire_bytes.tolist()):
            if draw(rate) == 0:
                self.packets_sampled += 1
                cache[flow_id] = cache.get(flow_id, 0) + nbytes * rate

    def maybe_export(self, now: float) -> Dict[int, int]:
        """Export the flow cache if the export interval elapsed.

        Returns the most recent export — between exports the consumer
        keeps seeing stale records, which is the staleness the paper's
        comparison highlights.
        """
        if now - self._last_export_time >= self.config.export_interval:
            self._last_export = dict(self._cache)
            self._cache = {}
            self._last_export_time = now
        return self._last_export

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetFlowMonitor(1:{self.config.sampling_rate}, "
            f"export={self.config.export_interval}s)"
        )
