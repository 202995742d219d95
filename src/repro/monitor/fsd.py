"""Flow size distributions, KL-divergence triggering, and accuracy.

A :class:`FlowSizeDistribution` summarizes the traffic mix in one
monitor interval two ways:

* an **elephant/mice split** — expected elephant count (PE flows
  contribute fractionally by likelihood) vs expected mice count.  This
  feeds the guided-randomness bias ``(dominant type, µ)`` of the SA
  tuner;
* a **log-bucket histogram** of per-flow cumulative bytes — the
  distribution the controller compares across intervals with KL
  divergence to decide whether traffic changed enough to trigger
  tuning (``KL(R_t, R_{t-1}) > θ``).

Accuracy metrics for the monitoring comparison (Fig. 10/11) are also
here: per-flow classification accuracy against ground-truth labels and
a total-variation-based distribution accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul, truediv
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.monitor.states import (
    CODE_ELEPHANT,
    CODE_MICE,
    CODE_OF_STATE,
    STATE_OF_CODE,
    TernaryState,
    check_knobs,
)
from repro.simulator.ordered import ordered_sum
from repro.simulator.units import mb

#: Number of log2 size buckets in the histogram (1 B .. ~1 GB).
HISTOGRAM_BUCKETS = 31

# Typed 0-d operands (see :func:`~repro.sketch.hashing.uint32_operand`);
# frexp's exponents are C ints.
_MICE = np.array(CODE_MICE, dtype=np.int8)
_UNIT = np.array(1.0)
_BIT0 = np.array(1, dtype=np.int64)
_EXPONENT_ONE = np.array(1, dtype=np.intc)
_EXPONENT_CAP = np.array(HISTOGRAM_BUCKETS, dtype=np.intc)


class FlowStates(Mapping):
    """Per-flow ternary states of an FSD, held as two columns.

    A monitor interval only reduces the columns (weights, histogram),
    so the flow-id → :class:`TernaryState` dict that accuracy checks
    look flows up in is built on first access, not per report.  Later
    rows win on a repeated id, as successive ``dict.update`` calls
    would.  Compares equal to any mapping with the same items.
    """

    __slots__ = ("ids", "codes", "_table")

    def __init__(
        self, ids: Optional[np.ndarray] = None, codes: Optional[np.ndarray] = None
    ):
        self.ids = np.zeros(0, dtype=np.int64) if ids is None else ids
        self.codes = np.zeros(0, dtype=np.int8) if codes is None else codes
        self._table: Optional[Dict[int, TernaryState]] = None

    @classmethod
    def of(cls, states: Mapping[int, TernaryState]) -> "FlowStates":
        """Columns for any state mapping (a plain dict is converted)."""
        if isinstance(states, cls):
            return states
        ids = np.fromiter(states.keys(), dtype=np.int64, count=len(states))
        codes = np.fromiter(
            (CODE_OF_STATE[state] for state in states.values()),
            dtype=np.int8,
            count=len(states),
        )
        return cls(ids, codes)

    def _lookup(self) -> Dict[int, TernaryState]:
        if self._table is None:
            self._table = {
                fid: STATE_OF_CODE[code]
                for fid, code in zip(self.ids.tolist(), self.codes.tolist())
            }
        return self._table

    def __getitem__(self, flow_id: int) -> TernaryState:
        return self._lookup()[flow_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._lookup())

    def __len__(self) -> int:
        return len(self._lookup())

    def __repr__(self) -> str:
        return f"FlowStates({self._lookup()!r})"


@dataclass
class FlowSizeDistribution:
    """Network-wide (or per-switch) traffic mix for one interval."""

    elephant_weight: float = 0.0   # expected elephants (E + likelihood·PE)
    mice_weight: float = 0.0       # expected mice
    histogram: Tuple[float, ...] = field(
        default_factory=lambda: tuple([0.0] * HISTOGRAM_BUCKETS)
    )
    flow_states: Mapping[int, TernaryState] = field(default_factory=FlowStates)
    #: Memoized ``(histogram, epsilon, result)`` of the last
    #: :meth:`normalized_histogram` call.  The controller normalizes
    #: the same interval's histogram repeatedly (KL against previous,
    #: KL against pre-change reference, logging), and the histogram
    #: tuple is replaced wholesale when it changes, so identity of the
    #: tuple is a sound cache key.
    _norm_cache: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        flow_ids: np.ndarray,
        cumulative_bytes: np.ndarray,
        state_codes: np.ndarray,
        tau: int = mb(1.0),
    ) -> "FlowSizeDistribution":
        """Build from columnar classifier output (tracking order).

        The one-group case of :func:`group_distributions`.
        """
        ids = np.asarray(flow_ids, dtype=np.int64)
        return group_distributions(ids, cumulative_bytes, state_codes, [ids.size], tau)[0][0]

    @classmethod
    def from_sizes(
        cls, sizes: Mapping[int, int], tau: int = mb(1.0)
    ) -> "FlowSizeDistribution":
        """:meth:`from_size_columns` over a flow id → bytes mapping
        (ground truth, NetFlow exports), in mapping order."""
        return cls.from_size_columns(
            np.fromiter(sizes.keys(), dtype=np.int64, count=len(sizes)),
            np.fromiter(sizes.values(), dtype=np.int64, count=len(sizes)),
            tau,
        )

    @classmethod
    def from_size_columns(
        cls, flow_ids: np.ndarray, sizes: np.ndarray, tau: int = mb(1.0)
    ) -> "FlowSizeDistribution":
        """The single-interval rule: a flow is E iff its bytes reach
        ``τ``, M otherwise; flows with no bytes are dropped.

        Exact for ground-truth sizes; on one interval's sketch read it is
        the naive Elastic Sketch classification Keypoint 2 criticises.
        """
        check_knobs(tau)
        ids = np.asarray(flow_ids, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        moved = sizes > 0
        ids, sizes = ids[moved], sizes[moved]
        codes = (sizes >= tau).view(np.int8) * np.int8(CODE_ELEPHANT)
        return cls.from_columns(ids, sizes, codes, tau)

    # -- summaries ---------------------------------------------------------

    @property
    def total_flows(self) -> float:
        return self.elephant_weight + self.mice_weight

    def elephant_fraction(self) -> float:
        total = self.total_flows
        return self.elephant_weight / total if total > 0 else 0.0

    def dominant(self) -> Tuple[bool, float]:
        """``(dominant_is_elephant, µ)`` for the guided SA mutation."""
        frac = self.elephant_fraction()
        if frac >= 0.5:
            return True, frac
        return False, 1.0 - frac

    def normalized_histogram(self, epsilon: float = 1e-9) -> Tuple[float, ...]:
        cached = self._norm_cache
        if (
            cached is not None
            and cached[0] is self.histogram
            and cached[1] == epsilon
        ):
            return cached[2]
        total = sum(self.histogram)
        n = len(self.histogram)
        if total <= 0:
            result = tuple([1.0 / n] * n)
        else:
            denominator = total + epsilon * n
            result = tuple([(value + epsilon) / denominator for value in self.histogram])
        self._norm_cache = (self.histogram, epsilon, result)
        return result

    # -- comparisons ---------------------------------------------------------

    def classification_accuracy(
        self, truth_labels: Mapping[int, bool]
    ) -> float:
        """Fraction of ground-truth flows whose class we got right.

        ``truth_labels`` maps flow id -> is-elephant by *eventual* flow
        size.  PE counts as elephant-leaning when its likelihood puts
        it over 0.5; flows we never saw count as wrong (NetFlow's
        sampling misses show up here).
        """
        if not truth_labels:
            return 1.0
        correct = 0
        for flow_id, is_elephant in truth_labels.items():
            state = self.flow_states.get(flow_id)
            if state is None:
                continue  # unseen -> wrong
            predicted_elephant = state in (
                TernaryState.ELEPHANT,
                TernaryState.POTENTIAL_ELEPHANT,
            )
            if predicted_elephant == is_elephant:
                correct += 1
        return correct / len(truth_labels)

    def distribution_accuracy(self, truth: "FlowSizeDistribution") -> float:
        """1 − total-variation distance between the two-way splits."""
        p = self.elephant_fraction()
        q = truth.elephant_fraction()
        return 1.0 - abs(p - q)


def kl_divergence(
    current: FlowSizeDistribution,
    previous: FlowSizeDistribution,
    epsilon: float = 1e-9,
) -> float:
    """``KL(R_t || R_{t-1})`` over the size histograms (≥ 0)."""
    p = current.normalized_histogram(epsilon)
    q = previous.normalized_histogram(epsilon)
    # With ε > 0 every bin is > 0 and the terms fold through ``map``
    # with no bytecode per bin: libm's log, as the per-bin rule below
    # (numpy's SIMD log may round differently, and a KL value decides a
    # trigger), added left to right.  A normalized histogram holds a NaN
    # only where its denominator is NaN (every bin) or infinite (every
    # other bin 0), so its ``min`` is > 0 exactly when every bin is.
    if 0.0 < min(p):
        return ordered_sum(map(mul, p, map(math.log, map(truediv, p, q))))
    # A bin that is not > 0 (ε = 0, an underflow) adds nothing.
    return ordered_sum([pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0])


def group_distributions(
    flow_ids: np.ndarray,
    cumulative_bytes: np.ndarray,
    state_codes: np.ndarray,
    ends: np.ndarray,
    tau: int = mb(1.0),
    *,
    table: bool = False,
) -> "Tuple[List[FlowSizeDistribution], FlowSizeDistribution]":
    """Every contiguous row group's distribution (group ``g`` ends at
    ``ends[g]``) and the merge of them all, from one pass.

    The single summation kernel for every monitor arm.  One likelihood
    column and one bucketing cover all rows, and one ``bincount`` the
    histograms.  A group's two weights are one pairwise
    ``np.add.reduce`` over its own contiguous slice of the
    ``(likelihood, 1 - likelihood)`` rows — ``np.sum``'s kernel on the
    same operands in the same order as that group alone, so every group
    is bit-identical to a one-group call.  The merge is what
    :func:`merge_distributions` makes of the groups, bit for bit: the
    weights folded left to right in group order, the histogram the
    exact count over all rows (their column sum), and the flow states
    the input columns themselves, not a concatenation of their slices.

    ``table=True`` takes a flow table's columns as
    :meth:`~repro.monitor.states.ColumnarSlidingWindowClassifier.advance`
    returned them — int64 ids and bytes ``>= 0``, int8 codes that follow
    the Fig. 3 rules on those bytes, ``ends`` a list — unconverted, and
    ``tau`` may be a float64 0-d array (the division is the same).
    There an elephant's ``Φ ≥ τ``, so its ``min(1, Φ/τ)`` is already 1
    and the likelihood is that minimum capped by ``code != M``: the same
    bits as the masked writes any other codes need.
    """
    if table:
        ids, cum, codes, bounds = flow_ids, cumulative_bytes, state_codes, ends
    else:
        ids = np.asarray(flow_ids, dtype=np.int64)
        cum = np.asarray(cumulative_bytes, dtype=np.int64)
        codes = np.asarray(state_codes)
        bounds = np.asarray(ends).tolist()
    n_groups = len(bounds)
    # Row 0 the likelihood of becoming an elephant (E 1, M 0, PE
    # min(1, Φ/τ)), row 1 its complement.
    weights = np.empty((2, ids.size))
    likelihood = weights[0]
    if table:
        np.minimum(cum / tau, codes != _MICE, out=likelihood)
    else:
        np.minimum(cum / tau, _UNIT, out=likelihood)
        likelihood[codes == CODE_MICE] = 0.0
        likelihood[codes == CODE_ELEPHANT] = 1.0
    np.subtract(_UNIT, likelihood, out=weights[1])
    # Bucket floor(log2(bytes)), capped at the last; sizes below 1 B
    # land in bucket 0 as 1 B.  frexp's exponent of ``bytes | 1`` is
    # floor(log2) + 1, exact below 2**53 (setting bit 0 never moves the
    # top bit), and anything larger is capped anyway.  Group ``g``'s
    # buckets are offset by ``g·31``, minus the 1, in one add.
    buckets = np.frexp(cum | _BIT0)[1]
    np.minimum(buckets, _EXPONENT_CAP, out=buckets)
    if n_groups == 1:
        buckets -= _EXPONENT_ONE
    else:
        sizes = []
        lo = 0
        for hi in bounds:
            sizes.append(hi - lo)
            lo = hi
        buckets += np.arange(
            -1, n_groups * HISTOGRAM_BUCKETS - 1, HISTOGRAM_BUCKETS
        ).repeat(sizes)
    # One row per group and, after them, the merge's: their exact
    # column sum.
    histograms = np.bincount(
        buckets, minlength=(n_groups + 1) * HISTOGRAM_BUCKETS
    ).astype(np.float64)
    histograms.shape = (n_groups + 1, HISTOGRAM_BUCKETS)
    if n_groups > 1:
        np.add.reduce(histograms[:-1], 0, out=histograms[-1])
    sums = np.empty((n_groups, 2))
    lo = 0
    for hi, out in zip(bounds, sums):
        np.add.reduce(weights[:, lo:hi], 1, out=out)
        lo = hi
    histograms = histograms.tolist()
    groups = []
    elephant = mice = 0.0
    lo = 0
    for hi, histogram, (e, m) in zip(bounds, histograms, sums.tolist()):
        groups.append(
            FlowSizeDistribution(
                elephant_weight=e,
                mice_weight=m,
                histogram=tuple(histogram),
                flow_states=FlowStates(ids[lo:hi], codes[lo:hi]),
            )
        )
        elephant += e
        mice += m
        lo = hi
    merged = FlowSizeDistribution(
        elephant_weight=elephant,
        mice_weight=mice,
        histogram=(
            groups[0].histogram if n_groups == 1 else tuple(histograms[-1])
        ),
        flow_states=FlowStates(ids, codes),
    )
    return groups, merged


def merge_distributions(
    parts: Iterable[FlowSizeDistribution],
) -> FlowSizeDistribution:
    """Aggregate disjoint local FSDs into the network-wide FSD.

    Correct only when each flow is measured at exactly one point —
    which is what the TOS-bit dedup marking guarantees (Keypoint 1).
    Without dedup, overlapping parts double count and the merged
    elephant share inflates (the ablation bench demonstrates this).
    """
    parts = list(parts)
    elephant = 0.0
    mice = 0.0
    for part in parts:
        elephant += part.elephant_weight
        mice += part.mice_weight
    states = FlowStates()
    if parts:
        columns = [FlowStates.of(part.flow_states) for part in parts]
        states = FlowStates(
            np.concatenate([c.ids for c in columns]),
            np.concatenate([c.codes for c in columns]),
        )
        # Bucket counts are small integers in float form, so the
        # vectorized column sum is exact and order-independent.
        histogram = tuple(
            np.add.reduce(
                np.asarray([part.histogram for part in parts], dtype=float), axis=0
            ).tolist()
        )
    else:
        histogram = tuple([0.0] * HISTOGRAM_BUCKETS)
    return FlowSizeDistribution(
        elephant_weight=elephant,
        mice_weight=mice,
        histogram=histogram,
        flow_states=states,
    )
