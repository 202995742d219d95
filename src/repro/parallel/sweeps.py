"""The parallel grid-sweep driver.

:func:`offline_grid_search_parallel` is the grid sweep (full DES, or
the fluid screen) behind ``python -m repro sweep``.  It used to live
beside its result type (``tuning.grid``), which forced that lower
layer to lazily import the parallel fabric — exactly the upward edge
RL008 forbids.  It is a *driver*: it fans tasks out through a caller's
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
from repro.tuning.fidelity import SurrogateScreen
from repro.tuning.grid import DEFAULT_GRID, GridPointResult, expand_grid


def offline_grid_search_parallel(
    scenario,
    grid: Optional[Dict[str, Sequence[float]]] = None,
    executor: Optional[SweepExecutor] = None,
    skip_intervals: int = 0,
    screen_ratio: Optional[float] = None,
) -> Tuple[GridPointResult, List[GridPointResult]]:
    """Offline sweep over a :class:`~repro.parallel.tasks.ScenarioSpec`.

    Returns ``(best, results)`` with results in grid order.  Each point
    is a self-contained :class:`~repro.parallel.tasks.EvalTask`, so the
    sweep fans out over ``executor`` (default: ``SweepExecutor()``, no
    cache) and reuses its evaluation cache across repeated sweeps; the
    results do not depend on the executor's ``jobs``.

    ``screen_ratio`` optionally thins the sweep: the fluid model scores
    every point and only the top ``1/screen_ratio`` fraction runs the
    DES; the rest report calibrated fluid utilities, marked
    ``fidelity="fluid"``.  The returned ``best`` is always a point
    measured by the DES.
    """
    points = expand_grid(grid or DEFAULT_GRID)
    screen = (
        None if screen_ratio is None else SurrogateScreen(scenario, screen_ratio)
    )
    executor = executor or SweepExecutor()

    with trace.span(
        "sweep.grid", {"points": len(points), "screen_ratio": screen_ratio}
    ):
        if screen is None:
            des_indices = list(range(len(points)))
        else:
            keep = max(1, math.ceil(len(points) / screen.screen_ratio))
            des_indices, scores = screen.select(points, keep)
        evals = executor.map([
            EvalTask(scenario=scenario, seed=scenario.seed, params=points[i], index=i)
            for i in des_indices
        ])
        des_results = dict(zip(des_indices, evals))
        if screen is not None:
            for i in des_indices:
                screen.observe(scores[i], des_results[i].utility)

        results = []
        for i, params in enumerate(points):
            res = des_results.get(i)
            if res is None:
                results.append(
                    GridPointResult(
                        params, screen.calibration.apply(scores[i]), fidelity="fluid"
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
