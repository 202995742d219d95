"""ON-OFF LLM training workload (alltoall collective).

Section IV-B: 20 workers run alltoall — during the ON period every
worker sends the same flow size to every other worker; when the whole
round completes, the workers spend an OFF period (20 ms) on the model
update, then the next round starts.  alltoall is used because it is
the most network-intensive collective (worst incast pressure).

The round barrier is implemented with flow-completion callbacks, so ON
periods genuinely depend on the straggler worker — exactly why the
paper's tail-FCT improvements translate into training speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.simulator.flow import Flow
from repro.simulator.network import Network
from repro.simulator.units import mb, ms


@dataclass
class RoundRecord:
    """Timing of one completed alltoall round."""

    index: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class LlmTrainingWorkload:
    """Periodic alltoall among ``workers`` hosts with OFF gaps."""

    def __init__(
        self,
        workers: Optional[List[int]] = None,
        n_workers: int = 8,
        flow_size: int = mb(2.0),
        off_period: float = ms(20.0),
        start: float = 0.0,
        max_rounds: Optional[int] = None,
        tag: str = "llm",
    ):
        if flow_size <= 0:
            raise ValueError("flow_size must be positive")
        if off_period < 0:
            raise ValueError("off_period must be >= 0")
        self.workers = workers
        self.n_workers = n_workers
        self.flow_size = flow_size
        self.off_period = off_period
        self.start = start
        self.max_rounds = max_rounds
        self.tag = tag

        self.rounds: List[RoundRecord] = []
        self.flows: List[Flow] = []
        self._network: Optional[Network] = None
        self._round_index = 0
        self._round_start = 0.0
        self._outstanding: set = set()
        self._stopped = False

    def install(self, network: Network) -> None:
        if self.workers is None:
            self.workers = list(range(min(self.n_workers, network.spec.n_hosts)))
        if len(self.workers) < 2:
            raise ValueError("need at least two workers")
        self._network = network
        network.on_flow_complete(self._on_complete)
        network.sim.post_at(self.start, self._start_round)

    def stop(self) -> None:
        """Stop launching new rounds (in-flight flows still finish)."""
        self._stopped = True

    # -- round machinery -------------------------------------------------

    def _start_round(self) -> None:
        if self._stopped:
            return
        if self.max_rounds is not None and self._round_index >= self.max_rounds:
            return
        network = self._network
        now = network.sim.now
        self._round_start = now
        self._outstanding = set()
        for src in self.workers:
            for dst in self.workers:
                if src == dst:
                    continue
                flow = network.add_flow(src, dst, self.flow_size, now, tag=self.tag)
                self.flows.append(flow)
                self._outstanding.add(flow.flow_id)

    def _on_complete(self, flow: Flow) -> None:
        if flow.flow_id not in self._outstanding:
            return
        self._outstanding.discard(flow.flow_id)
        if self._outstanding:
            return
        # Round barrier reached: record it and schedule the next round
        # after the model-update OFF period.
        now = self._network.sim.now
        self.rounds.append(
            RoundRecord(self._round_index, self._round_start, now)
        )
        self._round_index += 1
        self._network.sim.post(self.off_period, self._start_round)

    # -- reporting ---------------------------------------------------------

    def completed_rounds(self) -> int:
        return len(self.rounds)

    def mean_round_duration(self) -> float:
        if not self.rounds:
            raise ValueError("no completed rounds")
        return sum(r.duration for r in self.rounds) / len(self.rounds)

    def algorithm_bandwidth(self) -> float:
        """NCCL-style busbw proxy: per-round bytes / round duration.

        Bytes exchanged per round are ``(n-1) × flow_size`` per worker;
        we report the per-worker aggregate rate in bits per second,
        averaged over completed rounds.
        """
        if not self.rounds:
            raise ValueError("no completed rounds")
        n = len(self.workers)
        per_worker_bytes = (n - 1) * self.flow_size
        rates = [per_worker_bytes * 8.0 / r.duration for r in self.rounds]
        return sum(rates) / len(rates)
