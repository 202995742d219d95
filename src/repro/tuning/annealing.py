"""Simulated annealing over DCQCN parameters (Algorithm 1).

The annealer is written *event-driven*, matching the paper's closed
loop: each monitor interval the controller (a) reports the measured
utility of the parameters dispatched last interval via
:meth:`feedback`, then (b) asks for the next mutation via
:meth:`propose` and dispatches it.  A tuning *process* runs until the
temperature cools below ``final_temp``; the best setting seen is then
(re)dispatched and the annealer reports :attr:`done`.

Paraleon's two SA optimizations (Section III-C):

1. **Guided randomness** — instead of mutating uniformly, each
   parameter is driven in the direction friendly to the dominant flow
   type with probability ``min(µ, η)`` (µ = dominant-type proportion
   from the measured FSD, η = exploitation cap, 0.8 in Table III), and
   in the anti-dominant direction otherwise, with empirical step
   ``s_p × rand(0.5, 1)``.
2. **Relaxed temperature** — the short schedule of Table III
   (T₀ = 90, T_final = 10, cooling 0.85, 20 iterations per level),
   which ends a tuning process after ~260 monitor intervals instead of
   the thousands a textbook schedule needs.

:class:`NaiveAnnealer` is the ablation baseline: unguided mutation
(50/50 directions, wider step range) on a conventional slow schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.simulator.dcqcn import DcqcnParams
from repro.telemetry import trace
from repro.telemetry.registry import get_registry
from repro.tuning.parameters import ParameterSpace

_SA_STEPS = get_registry().counter(
    "repro_sa_steps_total", "SA feedback (Metropolis) steps"
)
_SA_ACCEPTS = get_registry().counter(
    "repro_sa_accepts_total", "SA steps whose candidate was accepted"
)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Temperature schedule; defaults are Table III ("relaxed")."""

    initial_temp: float = 90.0
    final_temp: float = 10.0
    cooling_rate: float = 0.85
    iterations_per_temp: int = 20

    def __post_init__(self) -> None:
        if self.initial_temp <= 0 or self.final_temp <= 0:
            raise ValueError("temperatures must be positive")
        if self.final_temp > self.initial_temp:
            raise ValueError("final_temp must be <= initial_temp")
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.iterations_per_temp < 1:
            raise ValueError("iterations_per_temp must be >= 1")

    def total_rounds(self) -> int:
        """Number of temperature levels before the process finishes."""
        rounds = math.ceil(
            math.log(self.final_temp / self.initial_temp)
            / math.log(self.cooling_rate)
        )
        return max(1, int(rounds))

    def total_iterations(self) -> int:
        return self.total_rounds() * self.iterations_per_temp


# Textbook schedule used by the naive_SA ablation arm.
NAIVE_SCHEDULE = AnnealingSchedule(
    initial_temp=500.0, final_temp=1.0, cooling_rate=0.95, iterations_per_temp=20
)


@dataclass
class SaState:
    """Mutable annealing state, exposed for tests and logging."""

    current_solution: DcqcnParams
    current_util: float
    best_solution: DcqcnParams
    best_util: float
    temperature: float
    iteration: int = 0          # iteration within the current temperature
    total_feedbacks: int = 0


class _AnnealerBase:
    """Shared propose/feedback machinery for both annealer variants."""

    #: subclasses set these
    guided: bool
    step_scale_range: Tuple[float, float]

    def __init__(
        self,
        space: ParameterSpace,
        schedule: AnnealingSchedule,
        rng: Optional[random.Random] = None,
        eta: float = 0.8,
        temperature_scale: float = 0.01,
    ):
        if not 0.5 <= eta <= 1.0:
            raise ValueError("eta (max exploitation rate) must be in [0.5, 1]")
        self.space = space
        self.schedule = schedule
        self.rng = rng or random.Random(0)
        self.eta = eta
        # Algorithm 1 evaluates exp(Δ/T) with T cooling from 90 to 10,
        # which only produces meaningful acceptance probabilities if
        # the utility is on a 0-100 scale; ours is in [0, 1], so the
        # default ``temperature_scale`` of 0.01 restores the intended
        # behaviour (early: accept most moves; late: reject clearly
        # worse ones).  Setting it to 1.0 reproduces the
        # accept-everything walk of a literal [0, 1] reading.
        self.temperature_scale = temperature_scale
        self.state: Optional[SaState] = None
        # Candidates proposed and awaiting feedback, in proposal order.
        self._pending: Optional[list] = None
        self.utility_trace: list = []

    # -- lifecycle -----------------------------------------------------

    def begin(self, initial: DcqcnParams, initial_util: float = 0.0) -> None:
        """Start a tuning process from the currently deployed setting."""
        clamped = self.space.clamp(initial)
        self.state = SaState(
            current_solution=clamped,
            current_util=initial_util,
            best_solution=clamped,
            best_util=initial_util,
            temperature=self.schedule.initial_temp,
        )
        self._pending = None
        self.utility_trace = []
        if trace.active:
            trace.event(
                "sa.begin",
                {
                    "temperature": self.schedule.initial_temp,
                    "initial_utility": initial_util,
                    "params": clamped.as_dict(),
                    "guided": self.guided,
                },
            )

    @property
    def running(self) -> bool:
        return self.state is not None and not self.done

    @property
    def done(self) -> bool:
        if self.state is None:
            return False
        return self.state.temperature < self.schedule.final_temp

    @property
    def best(self) -> DcqcnParams:
        if self.state is None:
            raise RuntimeError("annealer has not been started")
        return self.state.best_solution

    # -- one monitor interval -------------------------------------------

    def propose(
        self, tp_bias: Optional[Tuple[bool, float]] = None
    ) -> DcqcnParams:
        """Generate the next candidate ``P_m`` (Algorithm 1 lines 14-22).

        ``tp_bias`` is ``(dominant_is_elephant, µ)`` from the measured
        flow size distribution; ignored by unguided annealers.  The
        ``k=1`` form of :meth:`propose_batch`.
        """
        return self.propose_batch(1, tp_bias)[0]

    def feedback(self, new_util: float, terms: Optional[dict] = None) -> None:
        """Report the measured utility of the last proposal.

        The ``k=1`` form of :meth:`feedback_batch`.  ``terms`` is the
        optional ``O_TP/O_RTT/O_PFC`` breakdown of ``new_util``; it is
        recorded in the ``sa.step`` trace record and does not affect
        the search.
        """
        self._settle([new_util], [terms])

    def _step_temperature_factor(self) -> float:
        ratio = self.state.temperature / self.schedule.initial_temp
        return min(1.0, max(0.25, math.sqrt(max(ratio, 0.0))))

    def _tp_probability(self, tp_bias: Optional[Tuple[bool, float]]) -> float:
        if not self.guided or tp_bias is None:
            return 0.5
        dominant_is_elephant, mu = tp_bias
        mu = min(max(mu, 0.0), 1.0)
        exploit = min(mu, self.eta)
        return exploit if dominant_is_elephant else 1.0 - exploit

    # -- batched candidates (parallel evaluation fabric) ----------------

    def propose_batch(
        self, k: int, tp_bias: Optional[Tuple[bool, float]] = None
    ) -> list:
        """Generate ``k`` candidates for concurrent evaluation.

        All ``k`` mutations start from the *current* solution (the
        batched-SA relaxation: within one batch, candidates do not see
        each other's accepts); :meth:`feedback_batch` then applies the
        Metropolis rule to each measured utility **in proposal order**,
        so acceptance, best-tracking and the temperature schedule
        behave exactly as if the candidates had been played serially.
        :meth:`propose` / :meth:`feedback` are the ``k=1`` case.
        """
        if k < 1:
            raise ValueError("batch size must be >= 1")
        if self.state is None:
            raise RuntimeError("annealer has not been started")
        if self._pending is not None:
            raise RuntimeError("a proposal is already awaiting feedback")
        tp_probability = self._tp_probability(tp_bias)
        # "With high temperature at the beginning, SA can explore and
        # mutate new attempts in more random directions and steps": the
        # step range shrinks as the temperature cools, so a freshly
        # (re)started process adapts in big moves while a nearly
        # converged one fine-tunes.
        temp_factor = self._step_temperature_factor()
        low, high = self.step_scale_range
        base = self.state.current_solution
        batch = [
            self.space.mutate(
                base,
                self.rng,
                tp_probability,
                (low * temp_factor, high * temp_factor),
            )
            for _ in range(k)
        ]
        self._pending = batch
        return list(batch)

    def screen_batch(self, keep_indices: list) -> list:
        """Prune the pending batch to the surviving candidates.

        The multi-fidelity screen: a cheap surrogate scores the whole
        proposal batch and only ``keep_indices`` (positions into the
        batch from :meth:`propose_batch`, in their original order) go
        on to full evaluation.  :meth:`feedback_batch` then expects one
        utility per *survivor*.  Candidates screened out never enter
        the Metropolis walk — they are treated as if never proposed,
        which keeps the acceptance sequence a pure function of the
        surviving (candidate, utility) stream.

        Returns the surviving candidates, positionally aligned with the
        utilities that :meth:`feedback_batch` will expect.
        """
        if self._pending is None:
            raise RuntimeError("screen_batch() called before propose_batch()")
        batch = self._pending
        indices = list(keep_indices)
        if not indices:
            raise ValueError("screen_batch() must keep at least one candidate")
        if indices != sorted(set(indices)):
            raise ValueError("keep_indices must be strictly increasing")
        if indices[0] < 0 or indices[-1] >= len(batch):
            raise ValueError(
                f"keep_indices out of range for batch of {len(batch)}"
            )
        survivors = [batch[i] for i in indices]
        self._pending = survivors
        return list(survivors)

    def feedback_batch(self, utilities: list) -> None:
        """Accept/reject a batch of measured utilities, in order."""
        self._settle(utilities, [None] * len(utilities))

    def _settle(self, utilities: list, terms: list) -> None:
        """Metropolis acceptance (Algorithm 1 lines 6-13) per utility.

        Advances the iteration/temperature counters once per candidate
        of the pending batch, in proposal order.
        """
        if self.state is None:
            raise RuntimeError("annealer has not been started")
        if self._pending is None:
            raise RuntimeError("feedback called before a proposal")
        batch = self._pending
        if len(utilities) != len(batch):
            raise ValueError(
                f"got {len(utilities)} utilities for {len(batch)} candidates"
            )
        self._pending = None
        state = self.state
        for candidate, new_util, parts in zip(batch, utilities, terms):
            state.total_feedbacks += 1
            self.utility_trace.append(new_util)

            delta = new_util - state.current_util
            temp = state.temperature * self.temperature_scale
            accepted = delta > 0 or math.exp(delta / temp) > self.rng.random()
            if accepted:
                state.current_util = new_util
                state.current_solution = candidate
            if state.current_util > state.best_util:
                state.best_util = state.current_util
                state.best_solution = state.current_solution

            _SA_STEPS.inc()
            if accepted:
                _SA_ACCEPTS.inc()
            if trace.active:
                trace.event(
                    "sa.step",
                    {
                        "temperature": state.temperature,
                        "iteration": state.iteration,
                        "feedbacks": state.total_feedbacks,
                        "params": candidate.as_dict(),
                        "utility": new_util,
                        "accepted": accepted,
                        "best_utility": state.best_util,
                        "terms": parts or {},
                    },
                )

            state.iteration += 1
            if state.iteration >= self.schedule.iterations_per_temp:
                state.iteration = 0
                state.temperature *= self.schedule.cooling_rate


class ImprovedAnnealer(_AnnealerBase):
    """Paraleon's SA: guided randomness + relaxed temperature."""

    guided = True
    step_scale_range = (0.5, 1.0)

    def __init__(
        self,
        space: ParameterSpace,
        schedule: Optional[AnnealingSchedule] = None,
        rng: Optional[random.Random] = None,
        eta: float = 0.8,
        temperature_scale: float = 0.01,
    ):
        super().__init__(
            space, schedule or AnnealingSchedule(), rng, eta, temperature_scale
        )


class NaiveAnnealer(_AnnealerBase):
    """Textbook SA baseline: unguided mutation, slow schedule."""

    guided = False
    step_scale_range = (0.25, 2.0)

    def __init__(
        self,
        space: ParameterSpace,
        schedule: Optional[AnnealingSchedule] = None,
        rng: Optional[random.Random] = None,
        temperature_scale: float = 0.01,
    ):
        super().__init__(
            space, schedule or NAIVE_SCHEDULE, rng, 0.8, temperature_scale
        )
