"""Batched simulated annealing over the parallel fabric.

The paper's tuning process evaluates one SA candidate per monitor
interval *in situ* — on the live network.  The offline variant (used
by the Fig. 12-style ablations and by pretraining) instead evaluates
candidates on a *frozen* scenario, which makes the evaluations
independent and therefore parallelizable: per temperature step the
annealer proposes K candidates from the current solution, the
executor evaluates them concurrently (dodging the cache for points SA
already visited), and the Metropolis accept/reject is then applied
**in proposal order**, so the guided-randomness and relaxed-schedule
semantics of Algorithm 1 are preserved (see DESIGN.md, "Batched SA").

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
from typing import List, Optional, Tuple

from repro.parallel.executor import SweepExecutor
from repro.parallel.tasks import EvalTask, ScenarioSpec, evaluate_task
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


def batched_anneal(
    scenario: ScenarioSpec,
    annealer: _AnnealerBase,
    initial: DcqcnParams,
    batch_size: int = 4,
    executor: Optional[SweepExecutor] = None,
    tp_bias: Optional[Tuple[bool, float]] = None,
    max_batches: Optional[int] = None,
    fidelity: Optional[FidelityConfig] = None,
    strategy: Optional[str] = None,
) -> BatchedAnnealResult:
    """Run one full SA tuning process with K-way concurrent evaluation.

    ``annealer`` may be an :class:`~repro.tuning.annealing.
    ImprovedAnnealer` or ``NaiveAnnealer``; its schedule decides when
    the process ends.  ``tp_bias`` plays the role of the measured FSD
    (frozen for the whole search, as the scenario is frozen too).
    ``fidelity`` selects the evaluation policy; see the module
    docstring.  ``batch_size`` is always the number of *full*
    evaluations per batch — screening proposes more and prunes down.

    The default executor dispatches to the process-wide persistent
    :func:`~repro.parallel.pool.get_shared_pool`, so the hundreds of
    small batches an SA search issues reuse one worker crew instead
    of paying process spawn per batch; ``strategy``
    forwards to :class:`SweepExecutor` (``auto`` when unset).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    fidelity = fidelity or FidelityConfig()
    executor = executor or SweepExecutor(strategy=strategy)
    screen = (
        SurrogateScreen(scenario, fidelity)
        if fidelity.mode in ("screen", "surrogate")
        else None
    )

    seed_result = evaluate_task(
        EvalTask(scenario=scenario, seed=scenario.seed, params=initial)
    )
    if screen is not None:
        seed_fluid = screen.score([initial])[0]
        screen.observe(seed_fluid, seed_result.utility)
    annealer.begin(initial, seed_result.utility)

    evaluations = 1
    batches = 0
    cache_hits = 0
    surrogate_scored = 1 if screen is not None else 0
    screened_out = 0
    aborted = 0
    with trace.span(
        "sa.search", {"batch_size": batch_size, "fidelity": fidelity.mode}
    ):
        while annealer.running and (
            max_batches is None or batches < max_batches
        ):
            candidates = annealer.propose_batch(
                fidelity.proposals_for(batch_size), tp_bias
            )
            if fidelity.mode == "surrogate":
                # Fluid-only batch: no DES dispatch at all; the walk
                # runs on calibrated surrogate scores.
                scores = screen.score(candidates)
                surrogate_scored += len(candidates)
                annealer.feedback_batch(
                    [screen.calibration.apply(s) for s in scores]
                )
                batches += 1
                continue

            scores: Optional[List[float]] = None
            if fidelity.mode == "screen":
                survivor_idx, scores = screen.select(candidates, batch_size)
                surrogate_scored += len(candidates)
                screened_out += len(candidates) - len(survivor_idx)
                survivors = annealer.screen_batch(survivor_idx)
            else:
                survivor_idx = list(range(len(candidates)))
                survivors = candidates

            threshold = fidelity.abort_threshold(annealer.state.best_util)
            tasks = [
                EvalTask(
                    scenario=scenario,
                    seed=scenario.seed,
                    params=c,
                    index=i,
                    abort_threshold=threshold,
                    abort_after_frac=fidelity.abort_after_frac,
                )
                for i, c in enumerate(survivors)
            ]
            results = executor.map(tasks)
            for idx, result in zip(survivor_idx, results):
                if result.aborted:
                    aborted += 1
                elif screen is not None:
                    screen.observe(scores[idx], result.utility)
            annealer.feedback_batch([r.utility for r in results])
            evaluations += len(results)
            cache_hits += executor.last_cache_hits
            batches += 1
            if trace.active:
                trace.event(
                    "sa.batch",
                    {
                        "batch": batches,
                        "size": len(results),
                        "proposed": len(candidates),
                        "aborted": sum(1 for r in results if r.aborted),
                        "cache_hits": executor.last_cache_hits,
                        "temperature": annealer.state.temperature,
                        "best_utility": annealer.state.best_util,
                    },
                )

    state = annealer.state
    best_params = state.best_solution
    best_utility = state.best_util
    if fidelity.mode == "surrogate":
        # The walk ran on surrogate scores; confirm the winner with one
        # full-fidelity run so the reported utility is a measurement.
        confirm = evaluate_task(
            EvalTask(scenario=scenario, seed=scenario.seed, params=best_params)
        )
        evaluations += 1
        best_utility = confirm.utility
    return BatchedAnnealResult(
        best_params=best_params,
        best_utility=best_utility,
        evaluations=evaluations,
        batches=batches,
        cache_hits=cache_hits,
        utility_trace=list(annealer.utility_trace),
        fidelity_mode=fidelity.mode,
        surrogate_scored=surrogate_scored,
        screened_out=screened_out,
        aborted=aborted,
    )
