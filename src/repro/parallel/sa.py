"""Batched simulated annealing over the parallel fabric: the one SA driver.

The paper's tuning process evaluates one SA candidate per monitor
interval *in situ* — on the live network.  The offline variant (used
by the Fig. 12-style ablations, by pretraining and by the control
plane's per-tenant retunes) instead evaluates candidates on a *frozen*
scenario, which makes the evaluations independent and therefore
parallelizable: per step the annealer proposes K candidates from the
current solution, the executor evaluates them concurrently (dodging
the cache for points SA already visited), and the Metropolis
accept/reject is then applied **in proposal order**, so the
guided-randomness and relaxed-schedule semantics of Algorithm 1 are
preserved (see DESIGN.md, "Batched SA").

:func:`step_loops` is that step, for any number of independent walks
(:class:`SaLoop`) at once: it proposes for every loop, screens, makes
one union ``executor.map`` call and feeds each loop back its own slice.
:func:`batched_anneal` runs one loop to the end of its schedule;
:class:`~repro.controlplane.loops.MultiplexedTuner` steps every active
tenant's loop once per control-plane interval.

Multi-fidelity search (``fidelity`` argument) layers two accelerations
on top without touching the full-fidelity semantics:

* **screen** — each batch proposes ``screen_ratio``× more candidates,
  the fluid surrogate scores them all in one vectorized pass, and only
  the top ``batch_size`` graduate to DES evaluation
  (:meth:`~repro.tuning.annealing._AnnealerBase.screen_batch` prunes
  the pending batch so the Metropolis walk only ever sees survivors).
* **early abort** — DES runs carry a threshold derived from the
  incumbent best; a run whose best-achievable mean utility drops below
  it is abandoned mid-flight and its optimistic bound fed back instead.

With ``fidelity`` left at the default (mode ``full``, abort off) the
search is byte-identical to the pre-multi-fidelity implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.parallel.executor import SweepExecutor
from repro.parallel.tasks import EvalTask, ScenarioSpec
from repro.simulator.dcqcn import DcqcnParams
from repro.telemetry import trace
from repro.tuning.annealing import _AnnealerBase
from repro.tuning.fidelity import FidelityConfig, SurrogateScreen


@dataclass
class BatchedAnnealResult:
    """Outcome of one offline batched-SA search."""

    best_params: DcqcnParams
    best_utility: float
    evaluations: int              # full-fidelity (DES) evaluations
    batches: int
    cache_hits: int
    utility_trace: List[float] = field(default_factory=list)
    fidelity_mode: str = "full"
    surrogate_scored: int = 0     # candidates scored by the fluid model
    screened_out: int = 0         # candidates the screen eliminated
    aborted: int = 0              # DES runs abandoned by early abort


@dataclass
class SaLoop:
    """One SA walk on a frozen scenario, as :func:`step_loops` drives it.

    ``tp_bias`` plays the role of the measured FSD (frozen for the
    whole walk, as the scenario is frozen too); ``screen`` is set for
    the ``screen`` and ``surrogate`` fidelities.
    """

    annealer: _AnnealerBase
    scenario: ScenarioSpec
    tp_bias: Optional[Tuple[bool, float]] = None
    screen: Optional[SurrogateScreen] = None
    evaluations: int = 0          # full-fidelity (DES) evaluations
    batches: int = 0
    cache_hits: int = 0
    surrogate_scored: int = 0
    screened_out: int = 0
    aborted: int = 0


def _task(scenario: ScenarioSpec, params: DcqcnParams, **kwargs) -> EvalTask:
    return EvalTask(scenario=scenario, seed=scenario.seed, params=params, **kwargs)


def begin_loop(
    annealer: _AnnealerBase,
    scenario: ScenarioSpec,
    initial: DcqcnParams,
    executor: SweepExecutor,
    tp_bias: Optional[Tuple[bool, float]] = None,
    screen: Optional[SurrogateScreen] = None,
) -> SaLoop:
    """Measure ``initial`` with one ``executor.map`` and start a walk there."""
    seed_result = executor.map([_task(scenario, initial)])[0]
    loop = SaLoop(annealer, scenario, tp_bias, screen, evaluations=1)
    if screen is not None:
        screen.observe(screen.score([initial])[0], seed_result.utility)
        loop.surrogate_scored = 1
    annealer.begin(initial, seed_result.utility)
    return loop


def step_loops(
    loops: Sequence[SaLoop],
    executor: SweepExecutor,
    batch_size: int,
    fidelity: FidelityConfig = FidelityConfig(),
) -> None:
    """Advance every loop by one batch: propose → screen → map → feedback.

    Every loop proposes (and, with a screen, prunes) its batch; the DES
    candidates of all loops go out as **one** ``executor.map`` call, so
    the worker crew interleaves walks instead of serializing them; each
    loop is then fed back its own slice in proposal order, in list
    order.  Loops are independent (own annealer, RNG and scenario), so
    a loop steps exactly as it would alone.
    """
    surrogate = fidelity.mode == "surrogate"
    plans = []
    tasks: List[EvalTask] = []
    for loop in loops:
        candidates = loop.annealer.propose_batch(
            fidelity.proposals_for(batch_size), loop.tp_bias
        )
        keep: Sequence[int] = range(len(candidates))
        scores: Optional[List[float]] = None
        if surrogate:
            # Fluid-only batch: no DES dispatch at all; the walk runs
            # on calibrated surrogate scores.
            scores = loop.screen.score(candidates)
            survivors = []
        elif fidelity.mode == "screen":
            keep, scores = loop.screen.select(candidates, batch_size)
            loop.screened_out += len(candidates) - len(keep)
            survivors = loop.annealer.screen_batch(keep)
        else:
            survivors = candidates
        if scores is not None:
            loop.surrogate_scored += len(candidates)
        threshold = fidelity.abort_threshold(loop.annealer.state.best_util)
        start = len(tasks)
        tasks.extend(
            _task(
                loop.scenario,
                candidate,
                index=start + i,
                abort_threshold=threshold,
                abort_after_frac=fidelity.abort_after_frac,
            )
            for i, candidate in enumerate(survivors)
        )
        plans.append((loop, len(candidates), keep, scores, start, len(tasks)))

    results = executor.map(tasks) if tasks else []
    for loop, proposed, keep, scores, start, stop in plans:
        mine = results[start:stop]
        if loop.screen is not None:
            for idx, result in zip(keep, mine):
                if not result.aborted:
                    loop.screen.observe(scores[idx], result.utility)
        if surrogate:
            utilities = [loop.screen.calibration.apply(s) for s in scores]
        else:
            utilities = [r.utility for r in mine]
        loop.annealer.feedback_batch(utilities)
        aborted = sum(r.aborted for r in mine)
        hits = sum(r.from_cache for r in mine)
        loop.evaluations += len(mine)
        loop.aborted += aborted
        loop.cache_hits += hits
        loop.batches += 1
        if trace.active and mine:
            trace.event(
                "sa.batch",
                {
                    "batch": loop.batches,
                    "size": len(mine),
                    "proposed": proposed,
                    "aborted": aborted,
                    "cache_hits": hits,
                    "temperature": loop.annealer.state.temperature,
                    "best_utility": loop.annealer.state.best_util,
                },
            )


def batched_anneal(
    scenario: ScenarioSpec,
    annealer: _AnnealerBase,
    initial: DcqcnParams,
    batch_size: int = 4,
    executor: Optional[SweepExecutor] = None,
    tp_bias: Optional[Tuple[bool, float]] = None,
    max_batches: Optional[int] = None,
    fidelity: Optional[FidelityConfig] = None,
) -> BatchedAnnealResult:
    """Run one full SA tuning process with K-way concurrent evaluation.

    ``annealer`` may be an :class:`~repro.tuning.annealing.
    ImprovedAnnealer` or ``NaiveAnnealer``; its schedule decides when
    the process ends.  ``tp_bias`` plays the role of the measured FSD.
    ``fidelity`` selects the evaluation policy (``full``, ``screen`` or
    ``surrogate``; ``hybrid`` is a grid-sweep rung and is rejected);
    see the module docstring.  ``batch_size`` is always the number of
    *full* evaluations per batch — screening proposes more and prunes
    down.

    The default executor dispatches to the process-wide persistent
    :func:`~repro.parallel.pool.get_shared_pool`, so the hundreds of
    small batches an SA search issues reuse one worker crew instead
    of paying process spawn per batch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    fidelity = fidelity or FidelityConfig()
    if fidelity.mode == "hybrid":
        raise ValueError(
            "fidelity mode 'hybrid' is a grid-sweep rung "
            "(offline_grid_search_parallel), not an SA search fidelity"
        )
    executor = executor or SweepExecutor()
    screen = (
        SurrogateScreen(scenario, fidelity)
        if fidelity.mode in ("screen", "surrogate")
        else None
    )
    loop = begin_loop(annealer, scenario, initial, executor, tp_bias, screen)
    with trace.span(
        "sa.search", {"batch_size": batch_size, "fidelity": fidelity.mode}
    ):
        while annealer.running and (
            max_batches is None or loop.batches < max_batches
        ):
            step_loops([loop], executor, batch_size, fidelity)

    best_params = annealer.state.best_solution
    best_utility = annealer.state.best_util
    if fidelity.mode == "surrogate":
        # The walk ran on surrogate scores; confirm the winner with one
        # full-fidelity run so the reported utility is a measurement.
        best_utility = executor.map([_task(scenario, best_params)])[0].utility
        loop.evaluations += 1
    return BatchedAnnealResult(
        best_params=best_params,
        best_utility=best_utility,
        evaluations=loop.evaluations,
        batches=loop.batches,
        cache_hits=loop.cache_hits,
        utility_trace=list(annealer.utility_trace),
        fidelity_mode=fidelity.mode,
        surrogate_scored=loop.surrogate_scored,
        screened_out=loop.screened_out,
        aborted=loop.aborted,
    )
