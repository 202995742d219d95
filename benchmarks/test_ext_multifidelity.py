"""Extension bench: the fluid screen finds the full sweep's winner on a
third of the DES.

Not a paper figure — the fluid screen (``screen_ratio``) is this
reproduction's answer to the ns-3-in-the-loop cost per candidate.  On
the default scenario (``ScenarioSpec()``: hadoop, small fabric,
0.05 s) a ``screen_ratio=3`` sweep of the 81-point ``DEFAULT_GRID``
must return the full sweep's best parameters while running the DES on
at most 27 points.  Both sweeps are deterministic, so the gate is on
parameters and counts only — no clock.  The screen is not gated on
flatter scenarios: on hadoop at 0.02 s its winner ranks 8/81
(EXPERIMENTS.md).
"""

from __future__ import annotations

from conftest import emit

from repro.parallel import ScenarioSpec, SweepExecutor
from repro.parallel.sweeps import offline_grid_search_parallel
from repro.tuning.grid import DEFAULT_GRID

SKIP = 5


def test_screened_sweep_finds_the_full_sweeps_winner():
    spec = ScenarioSpec()
    executor = SweepExecutor()
    best, full = offline_grid_search_parallel(
        spec, DEFAULT_GRID, executor=executor, skip_intervals=SKIP
    )
    screened_best, screened = offline_grid_search_parallel(
        spec, DEFAULT_GRID, executor=executor, skip_intervals=SKIP,
        screen_ratio=3.0,
    )

    des = sum(1 for r in screened if r.fidelity == "des")
    ranking = sorted(full, key=lambda r: -r.utility)
    rank = 1 + [r.params for r in ranking].index(screened_best.params)
    emit(
        "ext_multifidelity",
        f"scenario        : {spec.workload} {spec.scale} {spec.duration} s, "
        f"{len(full)}-point grid, skip {SKIP}\n"
        f"full sweep      : best {best.utility:.4f} in {len(full)} DES evals\n"
        f"screened (x3)   : best {screened_best.utility:.4f} in {des} DES "
        f"evals ({len(screened) - des} fluid-scored only)\n"
        f"winner rank     : {rank}/{len(full)} in the full sweep (gate: 1)\n"
        f"DES evaluations : {des} (gate: <= 27)",
    )
    assert screened_best.params == best.params
    assert des <= 27
