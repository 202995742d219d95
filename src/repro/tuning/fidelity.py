"""Multi-fidelity evaluation policy: screening, surrogate, early abort.

Offline tuning spends almost all of its wall-clock inside full
discrete-event evaluations, most of which exist only to be rejected.
This module packages the three fidelities the tuning loops can trade
between, over one approximation — the fluid model:

* **full** — every candidate runs the packet-level DES.  The reference
  fidelity; byte-identical to the pre-multi-fidelity behaviour.
* **screen** — successive halving: each batch proposes
  ``screen_ratio``× more candidates than will be fully evaluated, the
  vectorized :class:`~repro.simulator.fluid.FluidModel` scores them all
  in-process, and only the top fraction graduates to the DES.  The
  surrogate only decides *which* candidates run, never what their
  utility is, so completed DES results keep their digests.
* **surrogate** — the fluid model scores everything and only the final
  winner is confirmed with one DES run (an anneal keeps its seed when
  the winner measures lower).  Fastest, least faithful; for coarse
  exploration of large grids.

Early abort is orthogonal: with a known incumbent, a DES run whose
best-achievable mean utility falls below ``incumbent - abort_margin``
is abandoned partway (see
:func:`repro.parallel.tasks.make_abort_check`).  Both knobs are
deterministic — screening is a pure function of the candidate batch
and abort decisions are a pure function of the utility stream — so
multi-fidelity sweeps remain reproducible run-to-run.

:class:`SurrogateScreen` also keeps a running calibration of the
surrogate against every candidate that was evaluated at both
fidelities, exposing the honest error bar
(:class:`~repro.simulator.fluid.FluidCalibration`) and feeding the
``repro_fidelity_surrogate_error`` histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.fluid import (
    DEFAULT_DT,
    FluidCalibration,
    FluidModel,
    fit_calibration,
    profile_for_scenario,
    spearman_rank_correlation,
)
from repro.telemetry import trace
from repro.telemetry.registry import get_registry

#: Recognized values for the ``--fidelity`` CLI flag and config field,
#: ordered from highest fidelity to lowest.
FIDELITY_MODES = ("full", "screen", "surrogate")

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


@dataclass(frozen=True)
class FidelityConfig:
    """How aggressively a tuning loop may trade fidelity for speed."""

    mode: str = "full"
    #: Screen proposes ``screen_ratio * K`` candidates per batch of
    #: ``K`` DES evaluations; must be >= 1 (1.0 disables the screen).
    screen_ratio: float = 3.0
    #: Abandon DES runs that provably cannot reach the incumbent.
    early_abort: bool = False
    #: Fraction of the run that must complete before aborting.
    abort_after_frac: float = 0.5
    #: Slack below the incumbent a candidate may still be worth: the
    #: abort threshold is ``incumbent - abort_margin``, keeping
    #: near-incumbent candidates alive for the Metropolis walk.
    abort_margin: float = 0.05
    #: Fluid integration sub-step (part of the reproducibility config).
    dt: float = DEFAULT_DT

    def __post_init__(self) -> None:
        if self.mode not in FIDELITY_MODES:
            raise ValueError(
                f"mode must be one of {FIDELITY_MODES}, got {self.mode!r}"
            )
        if self.screen_ratio < 1.0:
            raise ValueError("screen_ratio must be >= 1")
        if not 0.0 <= self.abort_after_frac <= 1.0:
            raise ValueError("abort_after_frac must be in [0, 1]")
        if self.abort_margin < 0.0:
            raise ValueError("abort_margin must be >= 0")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")

    def proposals_for(self, k: int) -> int:
        """Batch size to propose so ``k`` survivors graduate."""
        if self.mode != "screen":
            return k
        return max(k, int(round(k * self.screen_ratio)))

    def abort_threshold(self, incumbent: Optional[float]) -> Optional[float]:
        """Per-task abort threshold given the current incumbent."""
        if not self.early_abort or incumbent is None:
            return None
        return incumbent - self.abort_margin


class SurrogateScreen:
    """Fluid-model screening for one scenario.

    Stateless in its decisions (scores are a deterministic function of
    the candidate batch) but stateful in its *bookkeeping*: every
    candidate later evaluated by the DES is fed back via
    :meth:`observe`, maintaining a running affine calibration and error
    estimate of the surrogate on exactly the region of parameter space
    the search is visiting.

    The scenario's fluid profile is built here, so a workload the fluid
    model cannot score (``incast``) raises ``ValueError`` before a
    search spends any DES evaluation.
    """

    def __init__(self, scenario, config: Optional[FidelityConfig] = None):
        self.scenario = scenario
        self.config = config or FidelityConfig(mode="screen")
        self.model = FluidModel(dt=self.config.dt)
        self.profile = profile_for_scenario(scenario)
        self._fluid_anchor: List[float] = []
        self._des_anchor: List[float] = []
        self.calibration = FluidCalibration()

    # -- scoring / selection --------------------------------------------

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
