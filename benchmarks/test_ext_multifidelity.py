"""Extension bench: multi-fidelity SA keeps the answer on half the DES.

Not a paper figure — the fluid-screened, early-aborting anneal
(``FidelityConfig(mode="screen")``) is this reproduction's answer to
the ns-3-in-the-loop cost per candidate.  At a fixed batch budget it
must reach >= 99 % of the full-DES best utility while dispatching
<= 50 % of the DES evaluations.  Both sides are deterministic (same
scenario seed, same annealer RNG), so the gate is on counts and
utilities only — no clock.
"""

from __future__ import annotations

import random

from conftest import emit

from repro.parallel import ScenarioSpec
from repro.parallel.sa import batched_anneal
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.fidelity import FidelityConfig
from repro.tuning.parameters import default_params, default_space


def _annealer() -> ImprovedAnnealer:
    return ImprovedAnnealer(
        default_space(),
        AnnealingSchedule(90.0, 30.0, 0.85, 6),
        rng=random.Random(3),
    )


def test_screened_anneal_matches_full_on_half_the_des_budget():
    spec = ScenarioSpec(workload="hadoop", scale="small", duration=0.02)
    full = batched_anneal(
        spec, _annealer(), default_params(), batch_size=4, max_batches=10
    )
    # dt is doubled for the screen: ranking survives the coarser
    # integration and the surrogate overhead halves.
    fidelity = FidelityConfig(
        mode="screen", screen_ratio=4.0, early_abort=True, dt=2e-5
    )
    screened = batched_anneal(
        spec, _annealer(), default_params(),
        batch_size=2, max_batches=9, fidelity=fidelity,
    )

    utility_ratio = screened.best_utility / full.best_utility
    des_fraction = screened.evaluations / full.evaluations
    emit(
        "ext_multifidelity",
        f"full: best {full.best_utility:.4f} in {full.evaluations} DES evals\n"
        f"screened: best {screened.best_utility:.4f} in "
        f"{screened.evaluations} DES evals "
        f"({screened.surrogate_scored} fluid-scored, "
        f"{screened.aborted} aborted)\n"
        f"utility ratio     : {utility_ratio:.4f} (gate: >= 0.99)\n"
        f"DES fraction      : {des_fraction:.2f} (gate: <= 0.50)",
    )
    assert utility_ratio >= 0.99
    assert des_fraction <= 0.5
