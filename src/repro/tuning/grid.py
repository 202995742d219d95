"""Offline exhaustive (grid) search — the paper's timeliness foil.

Section III-C: "The optimal algorithm is to explore comprehensive
inter-parameter impacts by traversing all possible DCQCN parameter
combinations, but it fails to output timely results."  This module
makes that claim measurable: a coarse grid over the most influential
knobs, each point evaluated for one measurement window on a *frozen*
copy of the scenario — the offline procedure an operator (or an
AutoML pipeline) would run overnight.  That sweep runs through the
evaluation fabric (:func:`repro.parallel.sweeps.
offline_grid_search_parallel`, ``python -m repro sweep``); this module
holds the grid and its result type.

:class:`GridSearchTuner` plugs into the common Tuner interface so the
harness can also run it *online* — where it simply steps through its
grid one point per monitor interval, demonstrating exactly why
exhaustive search cannot track traffic dynamics: the grid takes
``len(grid)`` intervals to sweep once, while Paraleon reacts within a
handful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.network import Network
from repro.simulator.stats import IntervalStats
from repro.simulator.units import kb, mbps, us
from repro.tuning.parameters import default_params
from repro.tuning.utility import DEFAULT_WEIGHTS, UtilityWeights, utility

#: A deliberately coarse default grid over the four most influential
#: knobs (3^4 = 81 combinations).  Even this "small" grid needs 81
#: measurement windows per sweep — the timeliness problem in numbers.
DEFAULT_GRID: Dict[str, Sequence[float]] = {
    "rpg_ai_rate": (mbps(20.0), mbps(100.0), mbps(300.0)),
    "rate_reduce_monitor_period": (us(20.0), us(80.0), us(250.0)),
    "k_min": (kb(10.0), kb(40.0), kb(160.0)),
    "p_max": (0.05, 0.2, 0.5),
}


def expand_grid(grid: Dict[str, Sequence[float]]) -> List[DcqcnParams]:
    """All grid combinations as full parameter sets (defaults elsewhere)."""
    if not grid:
        raise ValueError("grid must have at least one dimension")
    names = list(grid)
    combos = itertools.product(*(grid[name] for name in names))
    points = []
    for values in combos:
        overrides = dict(zip(names, values))
        params = default_params().copy(**overrides)
        if params.k_min >= params.k_max:
            params = params.copy(k_max=int(params.k_min * 4))
        params.validate()
        points.append(params)
    return points


@dataclass
class GridPointResult:
    params: DcqcnParams
    utility: float
    #: Which fidelity produced ``utility``: "des" (full simulation) or
    #: "fluid" (calibrated fluid score of a screened-out point).
    fidelity: str = "des"
    #: Flight-recorder snapshot for this point, when recording was
    #: enabled and the executor kept it (best-K pruning); fluid-scored
    #: points never simulate, so they never carry one.
    recording: Optional[dict] = None


class GridSearchTuner:
    """Online exhaustive search under the common Tuner interface.

    Steps through the grid one point per monitor interval, recording
    each point's measured utility; after a full sweep it dispatches
    the best point and holds it (then optionally re-sweeps).
    """

    name = "GridSearch"

    def __init__(
        self,
        grid: Optional[Dict[str, Sequence[float]]] = None,
        weights: UtilityWeights = DEFAULT_WEIGHTS,
        resweep: bool = False,
    ):
        self.points = expand_grid(grid or DEFAULT_GRID)
        self.weights = weights
        self.resweep = resweep
        self.results: List[GridPointResult] = []
        self._index = 0
        self._pending: Optional[DcqcnParams] = None
        self._converged = False
        self.sweeps_completed = 0

    # -- Tuner interface -------------------------------------------------

    def attach(self, network: Network) -> None:
        network.set_all_params(default_params())

    def on_interval(self, stats: IntervalStats) -> Optional[DcqcnParams]:
        measured = utility(stats, self.weights)
        if self._pending is not None:
            self.results.append(GridPointResult(self._pending, measured))
            self._pending = None
        if self._converged:
            return None
        if self._index >= len(self.points):
            self.sweeps_completed += 1
            best = self.best()
            if self.resweep:
                self._index = 0
                self.results = []
            else:
                self._converged = True
            return best.params
        candidate = self.points[self._index]
        self._index += 1
        self._pending = candidate
        return candidate

    # -- results -----------------------------------------------------------

    @property
    def sweep_length(self) -> int:
        """Monitor intervals needed for one full sweep."""
        return len(self.points)

    def best(self) -> GridPointResult:
        if not self.results:
            raise ValueError("no grid points evaluated yet")
        return max(self.results, key=lambda r: r.utility)
