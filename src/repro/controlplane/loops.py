"""Multiplexed per-tenant SA tuning loops over one shared executor.

When several tenants' KL triggers fire (possibly in the same
interval), each tenant gets its own tuning process — its own
:class:`~repro.tuning.annealing.ImprovedAnnealer` walking its own
frozen evaluation scenario — but all of them share one
:class:`~repro.parallel.executor.SweepExecutor` and its
content-addressed eval cache.  Per control-plane interval the
:class:`MultiplexedTuner` collects every active loop's proposal batch,
dispatches the union as a *single* ``executor.map`` call (so the
worker crew interleaves candidates from all tenants instead of
serializing loop by loop), then feeds each loop back its own slice in
proposal order — preserving the exact Metropolis semantics of
:func:`repro.parallel.sa.batched_anneal` per loop.

Determinism: loops are stepped in sorted-tenant order, each annealer
owns a ``random.Random(rng_seed + tenant)``, and evaluations are pure
functions of their tasks, so the retuned parameters are digest-stable
across executor strategies (inline, sharded pool).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.monitor.fsd import FlowSizeDistribution
from repro.parallel.executor import SweepExecutor
from repro.parallel.tasks import EvalTask, ScenarioSpec
from repro.simulator.dcqcn import DcqcnParams
from repro.telemetry import trace
from repro.telemetry.registry import get_registry
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.parameters import default_params, default_space

_RETUNES = get_registry().counter(
    "repro_controlplane_retunes_total",
    "Per-tenant SA tuning processes run to completion",
)


@dataclass(frozen=True)
class TenantRetune:
    """One finished tuning process and the parameters it dispatched."""

    tenant: int
    trigger_interval: int
    finished_interval: int
    params: DcqcnParams
    utility: float
    evaluations: int
    batches: int


class _TenantLoop:
    """One tenant's in-flight SA process (annealer + frozen scenario)."""

    def __init__(
        self,
        tenant: int,
        scenario: ScenarioSpec,
        annealer: ImprovedAnnealer,
        tp_bias: Tuple[bool, float],
        trigger_interval: int,
    ):
        self.tenant = tenant
        self.scenario = scenario
        self.annealer = annealer
        self.tp_bias = tp_bias
        self.trigger_interval = trigger_interval
        self.evaluations = 0
        self.batches = 0


class MultiplexedTuner:
    """Concurrent per-tenant tuning loops over one shared executor."""

    def __init__(
        self,
        base_scenario: ScenarioSpec,
        executor: Optional[SweepExecutor] = None,
        batch_size: int = 4,
        schedule: Optional[AnnealingSchedule] = None,
        rng_seed: int = 7,
        initial_params: Optional[DcqcnParams] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.base_scenario = base_scenario
        self.executor = executor or SweepExecutor()
        self.batch_size = batch_size
        self.schedule = schedule or AnnealingSchedule()
        self.rng_seed = rng_seed
        self.initial_params = initial_params or default_params()
        self._loops: Dict[int, _TenantLoop] = {}
        self.finished: List[TenantRetune] = []

    # -- lifecycle ------------------------------------------------------

    @property
    def active_tenants(self) -> List[int]:
        return sorted(self._loops)

    def tenant_scenario(self, tenant: int) -> ScenarioSpec:
        """The frozen per-tenant scenario a trigger evaluates against."""
        return replace(
            self.base_scenario,
            workload_seed=self.base_scenario.workload_seed + tenant,
        )

    def trigger(
        self,
        tenant: int,
        interval: int,
        fsd: FlowSizeDistribution,
    ) -> bool:
        """Start (or restart) ``tenant``'s tuning loop.

        The tenant's FSD supplies the guided-randomness bias exactly as
        the single-tenant controller's does.  Returns False when the
        tenant already has a loop in flight — the running process keeps
        its walk; re-triggering mid-tune is the single-tenant restart
        policy, which we deliberately keep simple here.
        """
        if tenant in self._loops:
            return False
        import random

        scenario = self.tenant_scenario(tenant)
        annealer = ImprovedAnnealer(
            default_space(),
            self.schedule,
            rng=random.Random(self.rng_seed + tenant),
        )
        seed_result = self.executor.map(
            [
                EvalTask(
                    scenario=scenario,
                    seed=scenario.seed,
                    params=self.initial_params,
                )
            ]
        )[0]
        annealer.begin(self.initial_params, seed_result.utility)
        loop = _TenantLoop(
            tenant, scenario, annealer, fsd.dominant(), interval
        )
        loop.evaluations = 1
        self._loops[tenant] = loop
        return True

    # -- one control-plane interval -------------------------------------

    def step(self, interval: int) -> List[TenantRetune]:
        """Advance every active loop by one multiplexed proposal batch.

        Returns the loops that finished this interval (their dispatched
        parameters are also appended to :attr:`finished`).
        """
        order = self.active_tenants
        if not order:
            return []
        proposals: List[Tuple[_TenantLoop, List[DcqcnParams]]] = []
        tasks: List[EvalTask] = []
        for tenant in order:
            loop = self._loops[tenant]
            candidates = loop.annealer.propose_batch(
                self.batch_size, loop.tp_bias
            )
            proposals.append((loop, candidates))
            tasks.extend(
                EvalTask(
                    scenario=loop.scenario,
                    seed=loop.scenario.seed,
                    params=candidate,
                    index=len(tasks) + i,
                )
                for i, candidate in enumerate(candidates)
            )
        results = self.executor.map(tasks)
        done: List[TenantRetune] = []
        offset = 0
        for loop, candidates in proposals:
            batch = results[offset : offset + len(candidates)]
            offset += len(candidates)
            loop.annealer.feedback_batch([r.utility for r in batch])
            loop.evaluations += len(batch)
            loop.batches += 1
            if not loop.annealer.running:
                state = loop.annealer.state
                retune = TenantRetune(
                    tenant=loop.tenant,
                    trigger_interval=loop.trigger_interval,
                    finished_interval=interval,
                    params=state.best_solution,
                    utility=state.best_util,
                    evaluations=loop.evaluations,
                    batches=loop.batches,
                )
                _RETUNES.inc()
                if trace.active:
                    trace.event(
                        "controlplane.retune",
                        {
                            "tenant": loop.tenant,
                            "params": state.best_solution.as_dict(),
                            "utility": state.best_util,
                            "evaluations": loop.evaluations,
                        },
                    )
                done.append(retune)
                self.finished.append(retune)
                del self._loops[loop.tenant]
        return done
