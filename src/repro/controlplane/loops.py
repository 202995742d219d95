"""Multiplexed per-tenant SA tuning loops over one shared executor.

When several tenants' KL triggers fire (possibly in the same
interval), each tenant gets its own tuning process — its own
:class:`~repro.tuning.annealing.ImprovedAnnealer` walking its own
frozen evaluation scenario — but all of them share one
:class:`~repro.parallel.executor.SweepExecutor` and its
content-addressed eval cache.  A trigger starts the tenant's walk
with :func:`~repro.parallel.sa.begin_loop` (one ``executor.map`` of
the initial parameters); per control-plane interval the
:class:`MultiplexedTuner` advances every active walk with one
:func:`~repro.parallel.sa.step_loops` call — the same step
:func:`~repro.parallel.sa.batched_anneal` loops over — so the union
of all tenants' batches goes out as a *single* ``executor.map`` and
each tenant ends exactly where ``batched_anneal`` would on its own
scenario, RNG and bias.

Determinism: loops are stepped in sorted-tenant order, each annealer
owns a ``random.Random(rng_seed + tenant)``, and evaluations are pure
functions of their tasks, so the retuned parameters are digest-stable
across executor strategies (inline, sharded pool).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.monitor.fsd import FlowSizeDistribution
from repro.parallel.executor import SweepExecutor
from repro.parallel.sa import SaLoop, begin_loop, step_loops
from repro.parallel.tasks import ScenarioSpec
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
        # tenant -> (trigger interval, its in-flight SA walk)
        self._loops: Dict[int, Tuple[int, SaLoop]] = {}
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
        annealer = ImprovedAnnealer(
            default_space(),
            self.schedule,
            rng=random.Random(self.rng_seed + tenant),
        )
        loop = begin_loop(
            annealer,
            self.tenant_scenario(tenant),
            self.initial_params,
            self.executor,
            tp_bias=fsd.dominant(),
        )
        self._loops[tenant] = (interval, loop)
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
        step_loops(
            [self._loops[tenant][1] for tenant in order],
            self.executor,
            self.batch_size,
        )
        done: List[TenantRetune] = []
        for tenant in order:
            trigger_interval, loop = self._loops[tenant]
            if loop.annealer.running:
                continue
            state = loop.annealer.state
            retune = TenantRetune(
                tenant=tenant,
                trigger_interval=trigger_interval,
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
                        "tenant": tenant,
                        "params": state.best_solution.as_dict(),
                        "utility": state.best_util,
                        "evaluations": loop.evaluations,
                    },
                )
            done.append(retune)
            self.finished.append(retune)
            del self._loops[tenant]
        return done
