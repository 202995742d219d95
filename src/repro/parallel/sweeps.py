"""The parallel grid-sweep driver.

:func:`offline_grid_search_parallel` is the multi-fidelity grid sweep
(fluid screen / full DES with early abort) behind
``python -m repro sweep``.  It used to live beside its result type
(``tuning.grid``), which forced that lower layer to lazily import the
parallel fabric — exactly the upward edge RL008 forbids.  It is a
*driver*: it fans tasks out through a caller's
:class:`~repro.parallel.executor.SweepExecutor` and hands back the
lower layer's own result types, so it belongs up here in the parallel
layer where the dependency arrow points down.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.executor import SweepExecutor
from repro.parallel.tasks import EvalTask
from repro.telemetry import trace
from repro.tuning.fidelity import FidelityConfig, SurrogateScreen
from repro.tuning.grid import DEFAULT_GRID, GridPointResult, expand_grid


def offline_grid_search_parallel(
    scenario,
    grid: Optional[Dict[str, Sequence[float]]] = None,
    executor: Optional[SweepExecutor] = None,
    skip_intervals: int = 0,
    fidelity: Optional[FidelityConfig] = None,
) -> Tuple[GridPointResult, List[GridPointResult]]:
    """Offline sweep over a :class:`~repro.parallel.tasks.ScenarioSpec`.

    Returns ``(best, results)`` with results in grid order.  Each point
    is a self-contained :class:`~repro.parallel.tasks.EvalTask`, so the
    sweep fans out over ``executor`` (default: ``SweepExecutor()``, no
    cache) and reuses its evaluation cache across repeated sweeps; the
    results do not depend on the executor's ``jobs``.

    ``fidelity`` (a :class:`~repro.tuning.fidelity.FidelityConfig`)
    optionally thins the sweep: in ``screen`` mode the fluid surrogate
    scores every point and only the top ``1/screen_ratio`` fraction
    runs the DES (the rest report calibrated surrogate utilities,
    marked ``fidelity="fluid"``); ``surrogate`` mode DES-confirms only
    the fluid-best point.  Early abort uses the first completed DES
    point as the incumbent.  The returned ``best`` is always a point
    measured (completely) by the DES.
    """
    points = expand_grid(grid or DEFAULT_GRID)
    executor = executor or SweepExecutor()
    fidelity = fidelity or FidelityConfig()

    with trace.span(
        "sweep.grid", {"points": len(points), "fidelity": fidelity.mode}
    ):
        if fidelity.mode == "full" and not fidelity.early_abort:
            tasks = [
                EvalTask(scenario=scenario, seed=scenario.seed, params=p, index=i)
                for i, p in enumerate(points)
            ]
            evals = executor.map(tasks)
            results = [
                GridPointResult(
                    params,
                    res.mean_utility(skip=skip_intervals),
                    recording=res.recording,
                )
                for params, res in zip(points, evals)
            ]
            best = max(results, key=lambda r: r.utility)
            return best, results

        screen = (
            SurrogateScreen(scenario, fidelity)
            if fidelity.mode in ("screen", "surrogate")
            else None
        )
        if fidelity.mode == "surrogate":
            scores = screen.score(points)
            des_indices = [max(range(len(points)), key=lambda i: (scores[i], -i))]
        elif fidelity.mode == "screen":
            keep = max(1, math.ceil(len(points) / fidelity.screen_ratio))
            des_indices, scores = screen.select(points, keep)
        else:  # full + early abort
            scores = None
            des_indices = list(range(len(points)))

        # Establish the abort incumbent with one untimed full evaluation:
        # the fluid-best DES candidate (or simply the first point).
        if scores is not None:
            first = max(des_indices, key=lambda i: (scores[i], -i))
        else:
            first = des_indices[0]
        rest = [i for i in des_indices if i != first]

        def _task(i: int, threshold) -> EvalTask:
            return EvalTask(
                scenario=scenario,
                seed=scenario.seed,
                params=points[i],
                index=i,
                abort_threshold=threshold,
                abort_after_frac=fidelity.abort_after_frac,
            )

        des_results = {first: executor.map([_task(first, None)])[0]}
        threshold = fidelity.abort_threshold(des_results[first].utility)
        if rest:
            for i, res in zip(rest, executor.map([_task(i, threshold) for i in rest])):
                des_results[i] = res

        if screen is not None:
            for i in sorted(des_results):
                res = des_results[i]
                if not res.aborted:
                    screen.observe(scores[i], res.utility)

        results = []
        for i, params in enumerate(points):
            res = des_results.get(i)
            if res is None:
                results.append(
                    GridPointResult(
                        params, screen.calibration.apply(scores[i]), fidelity="fluid"
                    )
                )
            elif res.aborted:
                results.append(
                    GridPointResult(
                        params, res.utility, fidelity="aborted",
                        recording=res.recording,
                    )
                )
            else:
                results.append(
                    GridPointResult(
                        params,
                        res.mean_utility(skip=skip_intervals),
                        recording=res.recording,
                    )
                )
        best = max(
            (r for r in results if r.fidelity == "des"), key=lambda r: r.utility
        )
        return best, results
