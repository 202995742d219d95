"""The fluid screen: the one fidelity trade the tuning loops make.

Offline tuning spends almost all of its wall-clock inside full
discrete-event evaluations, most of which exist only to be rejected.
A search either runs the packet-level DES for every candidate (the
reference, ``screen_ratio=None``) or screens: each batch proposes
``screen_ratio``× more candidates than will be fully evaluated, the
vectorized :class:`~repro.simulator.fluid.FluidModel` scores them all
in-process, and only the top fraction graduates to the DES.  The fluid
model only decides *which* candidates run, never what their utility
is, so completed DES results keep their digests, and screening is a
pure function of the candidate batch, so screened searches remain
reproducible run-to-run.

:class:`SurrogateScreen` also keeps a running calibration of the fluid
model against every candidate that was evaluated at both fidelities,
exposing the honest error bar
(:class:`~repro.simulator.fluid.FluidCalibration`) and feeding the
``repro_fidelity_surrogate_error`` histogram.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.fluid import (
    FluidCalibration,
    FluidModel,
    fit_calibration,
    profile_for_scenario,
    spearman_rank_correlation,
)
from repro.telemetry import trace
from repro.telemetry.registry import get_registry

_SCREEN_BATCHES = get_registry().counter(
    "repro_fidelity_screen_batches_total",
    "Candidate batches scored by the fluid surrogate",
)
_SCREENED_OUT = get_registry().counter(
    "repro_fidelity_screened_out_total",
    "Candidates eliminated by the surrogate screen (never ran the DES)",
)
_SURROGATE_ERROR = get_registry().histogram(
    "repro_fidelity_surrogate_error",
    (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5),
    "abs(calibrated fluid utility - DES utility) on dual-fidelity points",
)


class SurrogateScreen:
    """Fluid-model screening for one scenario.

    Stateless in its decisions (scores are a deterministic function of
    the candidate batch) but stateful in its *bookkeeping*: every
    candidate later evaluated by the DES is fed back via
    :meth:`observe`, maintaining a running affine calibration and error
    estimate of the surrogate on exactly the region of parameter space
    the search is visiting.

    ``screen_ratio`` (finite, >= 1) is how many candidates the fluid
    model scores per candidate that runs the DES.  It and the
    scenario's fluid profile are checked here, so a bad ratio or a
    workload the fluid model cannot score (``incast``) raises
    ``ValueError`` before a search spends any DES evaluation.
    """

    def __init__(self, scenario, screen_ratio: float):
        ratio = float(screen_ratio)
        if not 1.0 <= ratio < math.inf:
            raise ValueError(
                f"screen_ratio must be finite and >= 1, got {screen_ratio!r}"
            )
        self.scenario = scenario
        self.screen_ratio = ratio
        self.model = FluidModel()
        self.profile = profile_for_scenario(scenario)
        self._fluid_anchor: List[float] = []
        self._des_anchor: List[float] = []
        self.calibration = FluidCalibration()

    # -- scoring / selection --------------------------------------------

    def proposals_for(self, k: int) -> int:
        """Batch size to propose so ``k`` survivors graduate."""
        return max(k, int(round(k * self.screen_ratio)))

    def score(self, params: Sequence[DcqcnParams]) -> List[float]:
        """Raw (uncalibrated) fluid utilities, one per candidate."""
        results = self.model.evaluate_profile(
            self.profile, list(params), self.scenario.utility_weights()
        )
        _SCREEN_BATCHES.inc()
        return [r.utility for r in results]

    def select(
        self, params: Sequence[DcqcnParams], keep: int
    ) -> Tuple[List[int], List[float]]:
        """Indices of the ``keep`` best candidates, plus all scores.

        The returned indices are sorted ascending (the order
        :meth:`~repro.tuning.annealing._AnnealerBase.screen_batch`
        expects); ties break toward the earlier proposal so selection
        is deterministic.
        """
        if keep < 1:
            raise ValueError("keep must be >= 1")
        scores = self.score(params)
        keep = min(keep, len(scores))
        ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        survivors = sorted(ranked[:keep])
        _SCREENED_OUT.inc(len(scores) - keep)
        if trace.active:
            trace.event(
                "fidelity.screen",
                {
                    "proposed": len(scores),
                    "kept": keep,
                    "survivors": survivors,
                    "scores": [round(s, 6) for s in scores],
                },
            )
        return survivors, scores

    # -- calibration ----------------------------------------------------

    def observe(self, fluid_utility: float, des_utility: float) -> None:
        """Record one candidate measured at both fidelities."""
        error = abs(self.calibration.apply(fluid_utility) - des_utility)
        _SURROGATE_ERROR.observe(error)
        self._fluid_anchor.append(fluid_utility)
        self._des_anchor.append(des_utility)
        self.calibration = fit_calibration(self._fluid_anchor, self._des_anchor)

    @property
    def spearman(self) -> float:
        """Rank agreement between the fidelities on observed points."""
        return spearman_rank_correlation(self._fluid_anchor, self._des_anchor)

    @property
    def n_observed(self) -> int:
        return len(self._fluid_anchor)


def default_anchor_params(base: Optional[DcqcnParams] = None) -> List[DcqcnParams]:
    """A small spread of anchor points covering the tuned space.

    Eight hand-picked corners/midpoints of the DCQCN knobs that the
    grid and SA searches actually move, centred on ``base`` (factory
    defaults when omitted).  Used by the ranking-fidelity tests.
    """
    base = base or DcqcnParams()
    return [
        base.copy(),
        # Expert-ish static setting: deeper marking, calmer cuts.
        base.copy(k_min=40_000, k_max=160_000, p_max=0.05),
        # Aggressive marking.
        base.copy(k_min=5_000, k_max=25_000, p_max=0.5),
        # Deep queue, lazy marking.
        base.copy(k_min=100_000, k_max=400_000, p_max=0.01),
        # Slow cuts.
        base.copy(rate_reduce_monitor_period=500e-6, min_dec_fac=0.9),
        # Fast additive increase.
        base.copy(rpg_ai_rate=100e6, rpg_hai_rate=1e9),
        # Slow alpha decay / slow increase timer.
        base.copy(dce_tcp_rtt=200e-6, rpg_time_reset=1.5e-3),
        # Mid point.
        base.copy(k_min=30_000, k_max=120_000, p_max=0.2, rpg_ai_rate=50e6),
    ]
