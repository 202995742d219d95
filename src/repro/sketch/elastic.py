"""Elastic Sketch (Yang et al., SIGCOMM 2018).

The data-plane measurement structure Paraleon deploys at ToR switches.
It splits traffic between:

* a **Heavy Part** — an array of buckets, each holding one candidate
  elephant flow as ``(flowID, vote+, flag, vote-)``.  ``vote+`` counts
  the resident flow's bytes, ``vote-`` counts bytes of colliding
  flows.  When ``vote- / vote+`` exceeds the *ostracism* threshold λ
  the resident is evicted: its ``vote+`` is flushed into the Light
  Part and the challenger takes the bucket with its ``flag`` set
  (meaning part of its earlier traffic may live in the Light Part).
* a **Light Part** — a count-min sketch absorbing ostracized and
  colliding (mice) traffic.

``query`` combines both parts and never undercounts a flow that is
resident in the Heavy Part.  Once per monitor interval the switch
control-plane agent calls :meth:`ElasticSketch.read_and_reset_arrays`
(or, for a whole :class:`ElasticStack`, :meth:`ElasticStack.read_and_reset`)
— the register read-and-clear cycle the paper performs on the Tofino
(Section III-B).

Layout: the Heavy Part is **columnar** — four parallel numpy arrays
(``flow_id``, ``vote+``, ``vote-``, ``flag``) instead of an array of
bucket objects.  The per-packet scalar :meth:`insert` indexes the
columns directly and defines the bucket rule; the switch observation
buffer flushes into :meth:`insert_batch` (the measurement point's
``observe_batch``), one order-exact array kernel with no per-packet
Python:

1. a stable sort groups the batch by bucket, arrival order kept inside
   each group, and an empty bucket seats the first packet aimed at it;
2. a **round** advances every bucket at once to its first ostracism:
   one prefix sum over the round's packets, rebased per bucket onto
   its registers, gives the running ``vote+``/``vote-`` after each
   packet, so the scalar test ``vote- >= λ·vote+`` is evaluated for
   every colliding packet in one vectorized compare.  Colliders
   before a bucket's stop spill to the Light Part; at the stop the
   resident spills and the challenger is seated, flag raised;
3. the packets behind each stop form the next round, so a batch takes
   at most one round more than the longest ostracism chain in any one
   bucket (``repro_sketch_batch_rounds_total``) — one or two on the
   ``monitor-stream`` workload.

Integer prefix sums are exact and the comparison is the scalar rule's
own ``int64 >= float64`` test, so every register, eviction count and
Light-Part counter is bit-identical to sequential :meth:`insert`
calls; the Light Part takes all spills as one batch because count-min
addition commutes exactly.  Hypothesis property tests drive random,
ostracism-heavy and deep-chain streams through both and assert state
equality.

Storage: every sketch belongs to an :class:`ElasticStack`, the
registers of N same-shape sketches in one table — Heavy Part columns of
``N·B`` rows (sketch ``i`` owns rows ``[i·B, (i+1)·B)``) and one ``(N,
depth, width)`` Light Part table.  A sketch only *views* its slice, so
the kernels above run per switch unchanged, while one
:meth:`ElasticStack.read_and_reset` serves any contiguous run of
members: one ``flatnonzero`` over the Heavy Part, one Light-Part query
for every flagged resident with each row's own sketch seeds, five
fills.  A lone sketch is a stack of one, and its own
:meth:`ElasticSketch.read_and_reset_arrays` is that pass over its one
slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sketch.cm import CountMinSketch, as_int64, query_stacked
from repro.sketch.hashing import hash32, hash32_array
from repro.telemetry.registry import get_registry

_BATCH_PACKETS = get_registry().counter(
    "repro_sketch_batch_packets_total",
    "Packets inserted through ElasticSketch.insert_batch",
)
_BATCH_ROUNDS = get_registry().counter(
    "repro_sketch_batch_rounds_total",
    "Rounds run by the ElasticSketch.insert_batch kernel",
)


def _starts(keys: np.ndarray) -> np.ndarray:
    """Positions where each run of equal keys starts in a grouped array."""
    change = np.empty(keys.size, dtype=bool)
    change[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    return np.flatnonzero(change)


@dataclass(frozen=True)
class ElasticSketchConfig:
    """Provisioning of one Elastic Sketch instance."""

    heavy_buckets: int = 1024
    light_width: int = 4096
    light_depth: int = 2
    ostracism_lambda: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.heavy_buckets < 1:
            raise ValueError("heavy_buckets must be >= 1")
        if self.light_width < 1 or self.light_depth < 1:
            raise ValueError("light part dimensions must be >= 1")
        if not (math.isfinite(self.ostracism_lambda) and self.ostracism_lambda > 0):
            raise ValueError(
                f"ostracism_lambda must be finite and positive, got {self.ostracism_lambda}"
            )


class ElasticSketch:
    """Heavy + Light measurement structure over non-negative flow ids."""

    def __init__(self, config: Optional[ElasticSketchConfig] = None):
        self.config = config or ElasticSketchConfig()
        n = self.config.heavy_buckets
        # Columnar Heavy Part: one row per bucket, -1 flow id = empty.
        self._flow_id = np.full(n, -1, dtype=np.int64)
        self._pos = np.zeros(n, dtype=np.int64)
        self._neg = np.zeros(n, dtype=np.int64)
        self._flag = np.zeros(n, dtype=bool)
        self._light = CountMinSketch(
            self.config.light_width,
            self.config.light_depth,
            seed=self.config.seed ^ 0x119447,
        )
        self._seed = self.config.seed
        # Hot-path caches for the per-packet insert: bucket count, the
        # pre-xored bucket hash seed, and the ostracism threshold.
        self._n_buckets = n
        self._bucket_seed = self.config.seed ^ 0x4EA71
        self._lambda = self.config.ostracism_lambda
        # Narrowest dtype holding a bucket index: numpy's stable argsort
        # is a radix sort for 8/16-bit keys.
        self._bucket_dtype = np.min_scalar_type(n - 1)
        #: Lifetime eviction count (diagnostics; survives resets).
        self.evictions = 0
        #: Evictions since the last :meth:`reset` (per monitor interval).
        self.interval_evictions = 0
        #: ``interval_evictions`` of the interval most recently closed
        #: by :meth:`read_and_reset_arrays`.
        self.last_interval_evictions = 0
        self.total_bytes = 0
        ElasticStack([self])

    def _bind(self, stack: "ElasticStack", slot: int) -> None:
        """Move this sketch's registers into ``stack``'s slice ``slot``."""
        lo, hi = slot * self._n_buckets, (slot + 1) * self._n_buckets
        for name, column in (
            ("_flow_id", stack.flow_id),
            ("_pos", stack.pos),
            ("_neg", stack.neg),
            ("_flag", stack.flag),
        ):
            view = column[lo:hi]
            view[...] = getattr(self, name)
            setattr(self, name, view)
        self._light.bind(stack.light[slot])
        self._stack, self._slot = stack, slot

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def insert(self, flow_id: int, nbytes: int) -> None:
        """Record ``nbytes`` of flow ``flow_id`` (one per-packet call).

        The scalar bucket rule; :meth:`insert_batch` is defined as
        equal to a sequence of these.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if flow_id < 0:
            raise ValueError("flow_id must be >= 0")
        self.total_bytes += nbytes
        index = hash32(flow_id, self._bucket_seed) % self._n_buckets
        fids = self._flow_id
        pos = self._pos
        resident = fids[index]

        if resident < 0:
            fids[index] = flow_id
            pos[index] = nbytes
            self._neg[index] = 0
            self._flag[index] = False
            return

        if resident == flow_id:
            pos[index] += nbytes
            return

        # Collision: vote against the resident.
        neg = self._neg
        neg[index] += nbytes
        positive = pos[index]
        if positive > 0 and neg[index] >= self._lambda * positive:
            # Ostracism: flush the resident to the Light Part and seat
            # the challenger with its flag raised.
            self._light.insert(int(resident), int(positive))
            fids[index] = flow_id
            pos[index] = nbytes
            neg[index] = 0
            self._flag[index] = True
            self.evictions += 1
            self.interval_evictions += 1
        else:
            self._light.insert(flow_id, nbytes)

    def insert_batch(self, flow_ids: np.ndarray, nbytes: np.ndarray) -> None:
        """Insert a packet batch, bit-identical to sequential inserts.

        ``flow_ids`` / ``nbytes`` are positionally aligned vectors in
        arrival order.  See the module docstring for the round kernel;
        ``repro_sketch_batch_rounds_total`` counts its rounds.
        """
        ids = as_int64(flow_ids, "flow_ids")
        vals = as_int64(nbytes, "nbytes")
        if ids.shape != vals.shape:
            raise ValueError(
                f"flow_ids and nbytes differ in shape: {ids.shape} vs {vals.shape}"
            )
        if ids.size == 0:
            return
        if vals.min() < 0:
            raise ValueError("nbytes must be >= 0")
        if ids.min() < 0:
            raise ValueError("flow_id must be >= 0")
        self.total_bytes += int(vals.sum())
        _BATCH_PACKETS.inc(ids.size)

        # Group the batch by bucket, arrival order kept inside each
        # group (a stable radix sort on the narrow bucket dtype).
        bucket = hash32_array(ids, self._bucket_seed) % self._n_buckets
        order = np.argsort(bucket.astype(self._bucket_dtype), kind="stable")
        bucket, ids, vals = bucket[order], ids[order], vals[order]
        fids, pos, neg, flag = self._flow_id, self._pos, self._neg, self._flag

        # An empty bucket seats the first packet aimed at it.
        heads = _starts(bucket)
        seated = heads[fids[bucket[heads]] < 0]
        into = bucket[seated]
        fids[into] = ids[seated]
        pos[into] = vals[seated]
        neg[into] = 0
        flag[into] = False
        live = np.ones(ids.size, dtype=bool)
        live[seated] = False
        live = np.flatnonzero(live)

        lam = self._lambda
        # Per-bucket scratch: each round's prefix-sum rebase and stop.
        base_up = np.empty(self._n_buckets, dtype=np.int64)
        base_down = np.empty(self._n_buckets, dtype=np.int64)
        stop = np.empty(self._n_buckets, dtype=np.int64)
        spill_keys = []
        spill_vals = []
        evicted = 0
        rounds = 0
        while live.size:
            # One round: every bucket with packets left runs up to (and
            # including) its first ostracism, all buckets at once.
            rounds += 1
            b = bucket[live]
            f = ids[live]
            v = vals[live]
            hit = f == fids[b]
            up = v * hit
            # Running vote+/vote- after each packet: one prefix sum over
            # the round, rebased per bucket onto its registers.
            up_sum = np.cumsum(up)
            down_sum = np.cumsum(v) - up_sum
            first = _starts(b)
            bf = b[first]
            base_up[bf] = pos[bf] - up_sum[first] + up[first]
            base_down[bf] = neg[bf] - down_sum[first] + (v[first] - up[first])
            # Only a colliding packet can ostracize; test just those.
            miss = np.flatnonzero(~hit)
            bm = b[miss]
            vote_up = up_sum[miss] + base_up[bm]
            vote_down = down_sum[miss] + base_down[bm]
            at = np.flatnonzero((vote_up > 0) & (vote_down >= lam * vote_up))
            at = at[_starts(bm[at])]   # the first per bucket

            # Each bucket stops at its first ostracism (or runs out);
            # colliders before the stop spill to the Light Part.
            evict = bm[at]
            stop[bf] = live.size
            stop[evict] = miss[at]
            spill = miss[miss < stop[bm]]
            spill_keys.append(f[spill])
            spill_vals.append(v[spill])
            last = np.append(first[1:], live.size) - 1
            pos[bf] = up_sum[last] + base_up[bf]
            neg[bf] = down_sum[last] + base_down[bf]
            if not at.size:
                break
            # Ostracism: the resident's vote+ spills to the Light Part
            # and the challenger takes the bucket with its flag raised.
            spill_keys.append(fids[evict])
            spill_vals.append(vote_up[at])
            fids[evict] = f[miss[at]]
            pos[evict] = v[miss[at]]
            neg[evict] = 0
            flag[evict] = True
            evicted += at.size
            live = live[np.arange(live.size) > stop[b]]

        self.evictions += evicted
        self.interval_evictions += evicted
        _BATCH_ROUNDS.inc(rounds)
        if spill_keys:
            # Count-min addition commutes exactly, so the Light Part
            # takes every round's spill as one batch.
            self._light.insert_batch(
                np.concatenate(spill_keys), np.concatenate(spill_vals)
            )

    # ``observe_batch`` is the batched MeasurementPoint interface the
    # switch observation buffer flushes into.
    observe_batch = insert_batch

    def query(self, flow_id: int) -> int:
        """Estimated bytes for ``flow_id`` since the last reset."""
        index = hash32(flow_id, self._bucket_seed) % self._n_buckets
        if self._flow_id[index] == flow_id:
            estimate = int(self._pos[index])
            if self._flag[index]:
                estimate += self._light.query(flow_id)
            return estimate
        return self._light.query(flow_id)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def read_heavy_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(flow_ids, estimates)`` for all Heavy Part residents.

        Bucket-index order, one row per occupied bucket.  Every flow
        hashes to exactly one bucket so the ids are distinct; a flagged
        resident's estimate adds its Light-Part count.
        """
        _, ids, estimates, _ = self._stack.read(self._slot, self._slot + 1)
        return ids, estimates

    def unattributed_bytes(self) -> int:
        """Bytes in the Light Part not claimed by a flagged resident.

        A coarse residual used only for diagnostics — per-flow estimates
        come from :meth:`read_heavy_arrays`.
        """
        flagged = (self._flow_id >= 0) & self._flag
        claimed = int(
            self._light.query_batch(self._flow_id[flagged]).sum()
        ) if flagged.any() else 0
        return max(self._light.total_inserted - claimed, 0)

    def reset(self) -> None:
        """Clear per-interval state (the register reset).

        ``evictions`` (the lifetime total) deliberately survives —
        diagnostics accumulate it across a whole run — while
        ``interval_evictions`` restarts so each interval reports only
        its own ostracism activity.
        """
        self._stack.reset(self._slot, self._slot + 1)

    def read_and_reset_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`read_heavy_arrays` then :meth:`reset`, atomically, as
        the control-plane agent does.

        Also latches :attr:`last_interval_evictions` so per-interval
        eviction reporting survives the clear.
        """
        _, ids, estimates, _ = self._stack.read_and_reset(self._slot, self._slot + 1)
        return ids, estimates

    def memory_bytes(self) -> int:
        """SRAM footprint: heavy buckets (13 B each: 4 B flowID, 4 B
        vote+, 4 B vote-, 1 B flag) plus light counters."""
        return self._n_buckets * 13 + self._light.memory_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ElasticSketch(heavy={self._n_buckets}, "
            f"light={self._light.width}x{self._light.depth})"
        )


class ElasticStack:
    """The registers of N same-shape Elastic Sketches in one table.

    Construction moves each sketch's current registers into its slice
    (sketch ``i`` of the list is slot ``i``) and rebinds the sketch to
    view it; the sketches' own inserts then write straight into the
    stack.  Sketches must agree on ``heavy_buckets`` and the Light Part
    shape; seeds and λ may differ.
    """

    def __init__(self, sketches: Sequence[ElasticSketch]):
        self.sketches: List[ElasticSketch] = list(sketches)
        if not self.sketches:
            raise ValueError("need at least one sketch")
        shapes = {
            (s.config.heavy_buckets, s.config.light_depth, s.config.light_width)
            for s in self.sketches
        }
        if len(shapes) != 1:
            raise ValueError(f"stacked sketches differ in shape: {sorted(shapes)}")
        (buckets, depth, width), = shapes
        n = len(self.sketches)
        self.n_buckets = buckets
        self.flow_id = np.full(n * buckets, -1, dtype=np.int64)
        self.pos = np.zeros(n * buckets, dtype=np.int64)
        self.neg = np.zeros(n * buckets, dtype=np.int64)
        self.flag = np.zeros(n * buckets, dtype=bool)
        self.light = np.zeros((n, depth, width), dtype=np.int64)
        self.light_mixed = np.stack([s._light.mixed_seeds for s in self.sketches])
        for slot, sketch in enumerate(self.sketches):
            sketch._bind(self, slot)

    def read(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, flow_ids, estimates, ends)`` of members ``[lo, hi)``.

        One row per occupied bucket in key order, where a row's key is
        its bucket offset by ``(member - lo)·B``: unique within a read
        and fixed for a flow.  Member ``lo + i``'s rows end at
        ``ends[i]``.  A flagged resident's estimate adds its own
        sketch's Light-Part count.
        """
        rows = slice(lo * self.n_buckets, hi * self.n_buckets)
        residents = self.flow_id[rows]
        keys = np.flatnonzero(residents >= 0)
        ids = residents[keys]
        estimates = self.pos[rows][keys]
        flagged = np.flatnonzero(self.flag[rows][keys])
        if flagged.size:
            which = lo + keys[flagged] // self.n_buckets
            estimates[flagged] += query_stacked(
                self.light, self.light_mixed, which, ids[flagged]
            )
        ends = np.searchsorted(keys, np.arange(1, hi - lo + 1) * self.n_buckets)
        return keys, ids, estimates, ends

    def reset(self, lo: int, hi: int) -> None:
        """Clear the registers of members ``[lo, hi)``."""
        rows = slice(lo * self.n_buckets, hi * self.n_buckets)
        self.flow_id[rows].fill(-1)
        self.pos[rows].fill(0)
        self.neg[rows].fill(0)
        self.flag[rows].fill(False)
        self.light[lo:hi].fill(0)
        for sketch in self.sketches[lo:hi]:
            sketch.total_bytes = 0
            sketch.interval_evictions = 0
            sketch._light.total_inserted = 0

    def read_and_reset(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`read` then :meth:`reset`, latching each member's
        ``last_interval_evictions`` in between."""
        result = self.read(lo, hi)
        for sketch in self.sketches[lo:hi]:
            sketch.last_interval_evictions = sketch.interval_evictions
        self.reset(lo, hi)
        return result
