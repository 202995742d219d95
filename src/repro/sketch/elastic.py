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

A flagged resident's estimate adds its Light-Part count, so a flow
resident in the Heavy Part is never undercounted.  Once per monitor
interval the switch control-plane agent reads and clears the registers
— :meth:`ElasticStack.read_and_reset` for a whole stack,
:meth:`ElasticSketch.read_and_reset_arrays` for one sketch — the
register read-and-clear cycle the paper performs on the Tofino
(Section III-B).

Storage: sketch registers live in one place, an :class:`ElasticStack`
— the registers of N same-shape sketches in one table: Heavy Part
columns (``flow_id``, ``vote+``, ``vote-``, ``flag``) of ``N·B`` rows
(sketch ``i`` owns rows ``[i·B, (i+1)·B)``) and one ``(N, depth,
width)`` Light Part table.  An :class:`ElasticSketch` is a ``(stack,
slot)`` handle on its slice with no registers of its own, and a lone
sketch is a stack of one.

One kernel, :meth:`ElasticStack._insert`, is the only code that adds
to either part.  It is order-exact for any number of a stack's
members, keyed by ``member·B + bucket``: :meth:`ElasticStack.insert`
takes ``(member, flow_ids, nbytes)`` chunks, and
:meth:`ElasticStack.close_interval` takes one batch with ``(member,
count)`` runs, then reads and resets every member — how
:class:`~repro.monitor.agent.AgentStack` closes an interval with every
member switch's buffered packets.  A sketch's own
:meth:`~ElasticSketch.insert_batch` (its ``observe_batch``) is the
one-member call.  A batch is checked once (integer vectors of one
shape, no negative id or byte count, members inside the stack) before
any register changes.  With no per-packet Python:

1. bucket hashes run in uint32 lanes (a power-of-two bucket count is
   a mask), and a stable radix sort on the narrow key dtype groups the
   batch by key, arrival order kept inside each group.  An empty
   bucket is seated with the first packet aimed at it and zero votes,
   so that packet is simply the first resident hit of round 1, which
   reads the sorted columns as they are;
2. a **round** advances every bucket at once to its first ostracism:
   one prefix sum over the round's hits and misses (both vote rows at
   once), rebased per bucket onto its registers, gives the running
   ``vote+``/``vote-`` after each packet, so the rule's test ``vote-
   >= λ·vote+`` is evaluated for
   every colliding packet in one vectorized compare (a stack's members
   share one λ).  Colliders before a bucket's stop spill to the Light
   Part; at the stop the resident spills and the challenger is seated,
   flag raised.  A round with no colliding packet is one ``reduceat``
   of each bucket's bytes onto its ``vote+``, and one whose colliders
   ostracize nobody spills them all and ends, with no stop or eviction
   bookkeeping;
3. the packets behind each stop form the next round, so a batch takes
   at most one round more than the longest ostracism chain in any one
   bucket (``repro_sketch_batch_rounds_total``);
4. every round's spills reach the Light Part at the end in one
   scatter: each spilled key is hashed under all ``depth`` row seeds
   of its own member in one call and added with one ``np.add.at``
   over the flattened ``(N·depth·width)`` table, because count-min
   addition commutes exactly.  :meth:`ElasticStack.close_interval`
   skips the scatter unless a touched member holds a flagged resident:
   flagged residents are the only readers of a Light-Part count, and
   the clear that follows would wipe it unread.

While no register of a stack has been written since it was last
cleared whole (:attr:`ElasticStack.written`), every register is empty,
so :meth:`ElasticStack.close_interval` runs the kernel on fresh
registers of just the batch's buckets, dense in bucket order, and its
read is those registers: it scans, writes and clears no register of
the stack.  That is every close of a switch whose buffer did not fill
mid-interval.

Integer prefix sums are exact and the comparison is the per-packet
rule's own ``int64 >= float64`` test, so every register, eviction count
and Light-Part counter is bit-identical to inserting the packets one
at a time.  That per-packet rule is test code, in the scalar oracle
``tests/scalar_monitor.py``; hypothesis property tests drive random,
ostracism-heavy, deep-chain and multi-member streams through both and
assert state equality, and fixed two-member cases pin each early exit.

One :meth:`ElasticStack.read_and_reset` serves any contiguous run of
members: one ``nonzero`` over the Heavy Part, one Light-Part query
for every flagged resident with each row's own sketch seeds, then a
clear of just the occupied buckets and a fill of just the Light Parts
written since their last clear (:attr:`ElasticStack.light_dirty`,
marked where the kernel's scatter writes them).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sketch.cm import as_int64, insert_stacked, query_stacked, row_seeds
from repro.sketch.hashing import hash32_mixed, mix_seed, mod32
from repro.telemetry.registry import get_registry

_BATCH_PACKETS = get_registry().counter(
    "repro_sketch_batch_packets_total",
    "Packets inserted through the ElasticStack.insert kernel",
)
_BATCH_ROUNDS = get_registry().counter(
    "repro_sketch_batch_rounds_total",
    "Rounds run by the ElasticStack.insert kernel",
)


#: Typed 0-d operands (see :func:`~repro.sketch.hashing.uint32_operand`).
_ZERO = np.array(0, dtype=np.int64)
_ONE = np.array(1, dtype=np.int64)
_EMPTY = np.array(-1, dtype=np.int64)
_UNFLAGGED = np.array(False)


def _batch(flow_ids: np.ndarray, nbytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(flow_ids, nbytes)`` as int64 vectors of one shape, or
    ``ValueError``."""
    ids, vals = as_int64(flow_ids, "flow_ids"), as_int64(nbytes, "nbytes")
    if ids.shape != vals.shape:
        raise ValueError(
            f"flow_ids and nbytes differ in shape: {ids.shape} vs {vals.shape}"
        )
    return ids, vals


def _heads(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal keys."""
    head = np.empty(keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head


def _runs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, end)`` of each run of equal keys in a grouped array:
    its first position and one past its last."""
    n = keys.size
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:n])
    edges = edge.nonzero()[0]
    return edges[:-1], edges[1:]


@dataclass(frozen=True)
class ElasticSketchConfig:
    """Provisioning of one Elastic Sketch instance."""

    heavy_buckets: int = 1024
    light_width: int = 4096
    light_depth: int = 2
    ostracism_lambda: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        # A float size would construct and then fail inside numpy's
        # allocation, and a float seed at the first XOR.
        for name in ("heavy_buckets", "light_width", "light_depth", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.heavy_buckets < 1:
            raise ValueError("heavy_buckets must be >= 1")
        if self.light_width < 1 or self.light_depth < 1:
            raise ValueError("light part dimensions must be >= 1")
        if not (math.isfinite(self.ostracism_lambda) and self.ostracism_lambda > 0):
            raise ValueError(
                f"ostracism_lambda must be finite and positive, got {self.ostracism_lambda}"
            )


class ElasticSketch:
    """Heavy + Light measurement structure over non-negative flow ids.

    A handle on slot :attr:`slot` of :attr:`stack`, which holds the
    registers; a new sketch is the one member of a stack of its own.
    """

    def __init__(self, config: Optional[ElasticSketchConfig] = None):
        self.config = config or ElasticSketchConfig()
        #: Lifetime eviction count (diagnostics; survives resets).
        self.evictions = 0
        self.stack: Optional[ElasticStack] = None
        self.slot = 0
        ElasticStack([self])

    def insert_batch(self, flow_ids: np.ndarray, nbytes: np.ndarray) -> None:
        """Insert a packet batch, bit-identical to inserting its packets
        one at a time.

        ``flow_ids`` / ``nbytes`` are positionally aligned vectors in
        arrival order: the one-member call of :meth:`ElasticStack.insert`.
        """
        self.stack.insert(((self.slot, flow_ids, nbytes),))

    # ``observe_batch`` is the batched MeasurementPoint interface the
    # switch observation buffer flushes into.
    observe_batch = insert_batch

    def read_and_reset_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(flow_ids, estimates)`` of every Heavy Part resident, then
        clear the registers, atomically, as the control-plane agent does.

        Bucket-index order, one row per occupied bucket.  Every flow
        hashes to exactly one bucket so the ids are distinct; a flagged
        resident's estimate adds its Light-Part count.  ``evictions``
        (the lifetime total) survives the clear.
        """
        _, ids, estimates, _ = self.stack.read_and_reset(self.slot, self.slot + 1)
        return ids, estimates

    def memory_bytes(self) -> int:
        """Modeled SRAM footprint (Table IV style accounting): heavy
        buckets (13 B each: 4 B flowID, 4 B vote+, 4 B vote-, 1 B flag)
        plus 4 B light counters, the register widths of the paper's
        Tofino deployment — not this process's int64 cells."""
        config = self.config
        return config.heavy_buckets * 13 + config.light_width * config.light_depth * 4

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        config = self.config
        return (
            f"ElasticSketch(heavy={config.heavy_buckets}, "
            f"light={config.light_width}x{config.light_depth})"
        )


class ElasticStack:
    """The registers of N same-shape Elastic Sketches in one table.

    Construction makes sketch ``i`` of the list the handle of slot
    ``i``, copying its current registers out of the stack it leaves.
    Sketches must agree on ``heavy_buckets``, the Light Part shape and
    λ; seeds may differ.  :meth:`insert` and :meth:`close_interval` run
    the one batch kernel of every member (see the module docstring).
    """

    def __init__(self, sketches: Sequence[ElasticSketch]):
        self.sketches: List[ElasticSketch] = list(sketches)
        if not self.sketches:
            raise ValueError("need at least one sketch")
        shapes = {
            (
                s.config.heavy_buckets,
                s.config.light_depth,
                s.config.light_width,
                s.config.ostracism_lambda,
            )
            for s in self.sketches
        }
        if len(shapes) != 1:
            raise ValueError(f"stacked sketches differ in shape or λ: {sorted(shapes)}")
        (buckets, depth, width, lam), = shapes
        n = len(self.sketches)
        self.n_buckets = buckets
        self.flow_id = np.full(n * buckets, -1, dtype=np.int64)
        #: vote+ (row 0) and vote- (row 1) as one table: a round rebases
        #: both with one ``take`` per operand.
        self.votes = np.zeros((2, n * buckets), dtype=np.int64)
        self.pos, self.neg = self.votes
        self.flag = np.zeros(n * buckets, dtype=bool)
        self.light = np.zeros((n, depth, width), dtype=np.int64)
        #: Members whose Light Part was written since its last clear:
        #: set at its one write in :meth:`_insert`, unset by the clear
        #: (:meth:`read_and_reset`), which fills only these.
        self.light_dirty = np.zeros(n, dtype=bool)
        #: Whether any register may be set: made true by the registers'
        #: one write in :meth:`_insert`, false by a clear of the whole
        #: stack.  While false every register is empty, Light Parts
        #: included, and :meth:`close_interval` runs on fresh registers.
        self.written = any(s.stack is not None and s.stack.written for s in self.sketches)
        # λ as a typed operand of its own kind: an int λ keeps the
        # ostracism test's products in int64, as a Python int does.
        self.lam = np.asarray(lam)
        # Per-member hash seeds, mixed once.
        seeds = [s.config.seed for s in self.sketches]
        self.light_mixed = np.stack([row_seeds(depth, seed ^ 0x119447) for seed in seeds])
        self.bucket_mixed = mix_seed(np.array([(seed ^ 0x4EA71) & 0xFFFFFFFF for seed in seeds]))
        # Each member's bucket seed over its first row, in uint32 lanes:
        # a multi-member batch repeats one column per run.
        self._seed_and_base = np.stack(
            (self.bucket_mixed, np.arange(n, dtype=np.uint32) * np.uint32(buckets))
        )
        # Row end of each member, for splitting a read by member.
        self._member_ends = np.arange(1, n + 1) * buckets
        for slot, sketch in enumerate(self.sketches):
            old = sketch.stack
            if old is not None:
                rows = slice(sketch.slot * buckets, (sketch.slot + 1) * buckets)
                new = slice(slot * buckets, (slot + 1) * buckets)
                self.flow_id[new] = old.flow_id[rows]
                self.votes[:, new] = old.votes[:, rows]
                self.flag[new] = old.flag[rows]
                self.light[slot] = old.light[sketch.slot]
                self.light_dirty[slot] = old.light_dirty[sketch.slot]
            sketch.stack, sketch.slot = self, slot

    def insert(self, chunks: Iterable[Tuple[int, np.ndarray, np.ndarray]]) -> None:
        """Insert ``(slot, flow_ids, nbytes)`` chunks, each into member
        ``slot``, bit-identical to inserting the packets one at a time.

        Each chunk's vectors are positionally aligned and in arrival
        order; a member named by several chunks takes them in the order
        given.  Every input is checked before any register changes.
        See the module docstring for the kernel;
        ``repro_sketch_batch_rounds_total`` counts its rounds.
        """
        slots, sizes, id_parts, val_parts = [], [], [], []
        for slot, flow_ids, nbytes in chunks:
            ids, vals = _batch(flow_ids, nbytes)
            if ids.size:
                slots.append(slot)
                sizes.append(ids.size)
                id_parts.append(ids)
                val_parts.append(vals)
        if not slots:
            return
        if len(slots) == 1:
            ids, vals = id_parts[0], val_parts[0]
        else:
            ids, vals = np.concatenate(id_parts), np.concatenate(val_parts)
        self._insert(ids, vals, slots, sizes, True)

    def close_interval(
        self, flow_ids: np.ndarray, nbytes: np.ndarray, runs: Sequence[Tuple[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Insert the interval's last packets, then :meth:`read_and_reset`
        every member.

        ``flow_ids``/``nbytes`` are one batch, checked once: for each
        ``(slot, count)`` of ``runs`` in order, member ``slot`` takes the
        next ``count`` packets, as :meth:`insert` with one chunk per run.
        The Light Part takes the insert's spills only if a member they
        reach holds a flagged resident, the only reader of a Light-Part
        count before the clear; otherwise the clear would wipe them
        unread.  While every register is empty (not :attr:`written`),
        the batch's buckets are all the read holds: the kernel runs on
        fresh registers of just those buckets and the read is those,
        with no register written or cleared.  Every read, register and
        counter is as for the two calls.
        """
        ids, vals = _batch(flow_ids, nbytes)
        slots, sizes = [], []
        total = 0
        for slot, count in runs:
            if count:
                slots.append(slot)
                sizes.append(count)
                total += count
        if total != ids.size:
            raise ValueError(f"runs cover {total} packets, the batch has {ids.size}")
        n = len(self.sketches)
        if not slots or self.written:
            if slots:
                self._insert(ids, vals, slots, sizes, False)
            return self.read_and_reset(0, n)
        keys, ids, estimates, flags = self._insert(ids, vals, slots, sizes, False, True)
        result = self._read_out(0, n, keys, ids, estimates, flags)
        if flags is not None:
            # An ostracism may have sent spills to the Light Part.
            self._clear_light(0, n)
        return result

    def _insert(
        self,
        ids: np.ndarray,
        vals: np.ndarray,
        slots: List[int],
        sizes: List[int],
        keep_light: bool,
        fresh: bool = False,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The kernel: member ``slots[i]`` takes the next ``sizes[i]``
        packets of the int64 batch; the Light Part takes the spills
        only with ``keep_light`` or a flagged resident among the
        touched members (:meth:`close_interval`).

        It runs on the registers in place, by bucket.  With ``fresh``
        (every register empty) it runs instead on fresh registers of
        just the touched buckets, dense in bucket order, and returns
        them — ``(keys, flow_ids, vote+, flags)``, keys offset from
        member 0, flags ``None`` if none was raised — writing no
        register of the stack.
        """
        if len(slots) == 1:
            lo = hi = slots[0]
        else:
            lo, hi = min(slots), max(slots)
        hi += 1
        # One range test for both columns: a negative id or byte count
        # makes their OR negative.
        if ((ids | vals) < _ZERO).nonzero()[0].size:
            if (vals < 0).nonzero()[0].size:
                raise ValueError("nbytes must be >= 0")
            raise ValueError("flow_id must be >= 0")
        if lo < 0 or hi > len(self.sketches):
            raise ValueError(f"slots {slots} outside [0, {len(self.sketches)})")
        _BATCH_PACKETS.inc(ids.size)
        n_buckets = self.n_buckets
        one = hi - lo == 1
        if one:
            # One member: a scalar seed.
            key = mod32(hash32_mixed(ids, self.bucket_mixed[lo]), n_buckets)
        else:
            # Each packet's member seed and first row, one repeat.
            seed, base = self._seed_and_base.take(slots, axis=1).repeat(sizes, axis=1)
            key = mod32(hash32_mixed(ids, seed), n_buckets)
            key += base
            if lo:
                key -= lo * n_buckets
        # Group the batch by key, arrival order kept inside each group:
        # a stable radix sort on the narrowest key dtype.
        span = (hi - lo) * n_buckets
        key = key.astype(
            np.uint8 if span <= 1 << 8 else np.uint16 if span <= 1 << 16 else np.uint32
        )
        order = key.argsort(kind="stable")
        key = key[order]
        ids, vals = ids[order], vals[order]

        # Each touched bucket is one run of the sorted batch.
        first, end = _runs(key)
        rows = slice(lo * n_buckets, hi * n_buckets)
        if fresh:
            # Every register empty: the touched buckets' registers start
            # fresh and dense (index i is the i-th touched bucket, and a
            # packet's is its run's), each seated with its first packet
            # and zero votes, so that packet is simply the first
            # resident hit of round 1.
            touched = key[first].astype(np.intp)
            b = np.arange(touched.size).repeat(end - first)
            fids = ids[first]
            tally = np.zeros((2, touched.size), dtype=np.int64)
            flag = None   # no flag until an ostracism raises one
        else:
            # In place, by bucket: the registers' one write, marked for
            # the clear.  An empty bucket is seated likewise (only a
            # register clear empties one, so its votes and flag are
            # already zero).
            self.written = True
            b = key.astype(np.intp)
            fids, tally, flag = self.flow_id[rows], self.votes[:, rows], self.flag[rows]
            bf = b[first]
            empty = fids[bf] < _ZERO
            fids[bf[empty]] = ids[first[empty]]
        pos, neg = tally

        # Per-bucket work rows, allocated where first needed.
        base = stop = None
        spills, evicted = [], []
        rounds = 0
        f, v = ids, vals
        while True:
            # One round: every bucket with packets left runs up to (and
            # including) its first ostracism, all buckets at once.  On
            # fresh registers round 1 holds every bucket, in order.
            rounds += 1
            every = fresh and rounds == 1
            if rounds > 1:
                first, end = _runs(b)
                bf = b[first]
            # Only a colliding packet can ostracize or spill.
            hit = f == fids[b]
            miss = (~hit).nonzero()[0]
            if not miss.size:
                # Every packet hits its resident: vote+ grows by the run.
                if every:
                    pos += np.add.reduceat(v, first)
                else:
                    pos[bf] += np.add.reduceat(v, first)
                break
            # Running vote+ (row 0) and vote- (row 1) before each packet
            # (entry i sums the round's packets ahead of i) and after it
            # (entry i + 1): one prefix sum over the round's hits and
            # misses, rebased per bucket onto its registers.
            n = b.size
            after = miss + _ONE
            running = np.zeros((2, n + 1), dtype=np.int64)
            up = running[0, 1:]
            np.multiply(v, hit, out=up)
            np.subtract(v, up, out=running[1, 1:])
            np.add.accumulate(running, axis=1, out=running)
            # Each bucket's registers less the round's votes ahead of
            # its first packet, by bucket: a collider adds its own
            # bucket's to its running votes.  Round 1 on fresh registers
            # has one per dense bucket; any other round scatters its
            # buckets' into a per-bucket row pair (which may be that
            # round-1 pair).
            bm = b[miss]
            if every:
                base = tally - running.take(first, axis=1)
                np.add(running.take(end, axis=1), base, out=tally)
            else:
                rebased = tally.take(bf, axis=1)
                rebased -= running.take(first, axis=1)
                pos[bf], neg[bf] = running.take(end, axis=1) + rebased
                if base is None:
                    base = np.empty((2, fids.size), dtype=np.int64)
                base[0][bf], base[1][bf] = rebased
            vote_up, vote_down = running.take(after, axis=1) + base.take(bm, axis=1)
            at = ((vote_up > _ZERO) & (vote_down >= self.lam * vote_up)).nonzero()[0]
            if not at.size:
                # No ostracism: every collider spills to the Light Part.
                spills.append((bm, f, v, miss))
                break
            at = at[_heads(bm[at])]   # the first per bucket

            # Each bucket stops at its first ostracism (or runs out);
            # colliders before the stop spill to the Light Part.
            evict = bm[at]
            if stop is None:
                stop = np.empty(fids.size, dtype=np.int64)
            stop[b[first]] = n
            stop[evict] = miss[at]
            spill = miss[miss < stop[bm]]
            spills.append((b[spill], f, v, spill))
            # Ostracism: the resident's vote+ spills to the Light Part
            # and the challenger takes the bucket with its flag raised.
            spills.append((evict, fids[evict], vote_up[at], None))
            fids[evict] = f[miss[at]]
            pos[evict] = v[miss[at]]
            neg[evict] = 0
            if flag is None:
                flag = np.zeros(fids.size, dtype=bool)
            flag[evict] = True
            evicted.append(evict)
            behind = (np.arange(n) > stop[b]).nonzero()[0]
            if not behind.size:
                break
            b, f, v = b[behind], f[behind], v[behind]
        _BATCH_ROUNDS.inc(rounds)

        if evicted:
            if one:
                count = 0
                for evict in evicted:
                    count += evict.size
                self.sketches[lo].evictions += count
            else:
                gone = np.concatenate(evicted)
                counts = np.bincount(
                    (touched[gone] if fresh else gone) // n_buckets, minlength=hi - lo
                ).tolist()
                for sketch, count in zip(self.sketches[lo:hi], counts):
                    sketch.evictions += count
        if spills and (keep_light or (evicted if fresh else flag.nonzero()[0].size)):
            # A spill is ``(buckets, keys, values, at)``: its packets are
            # picked out of its round's columns (``at``) only now that
            # the Light Part takes them.
            parts = [
                (buckets, keys, values) if at is None else (buckets, keys[at], values[at])
                for buckets, keys, values, at in spills
            ]
            if len(parts) == 1:
                spill_rows, spill_keys, values = parts[0]
            else:
                spill_rows, spill_keys, values = [np.concatenate(part) for part in zip(*parts)]
            # Count-min addition commutes exactly, so the Light Part takes
            # every round's spill as one scatter.  Its one write, marked
            # for the next clear.
            if not one:
                which = (touched[spill_rows] if fresh else spill_rows) // n_buckets
            else:
                which = 0
            insert_stacked(
                self.light[lo:hi], self.light_mixed[lo:hi], which, spill_keys, values
            )
            self.light_dirty[lo:hi][which] = True
        if fresh:
            if lo:
                touched += lo * n_buckets
            return touched, fids, pos, flag
        return None

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
        keys = (residents >= _ZERO).nonzero()[0]
        return self._read_out(
            lo, hi, keys, residents[keys], self.pos[rows][keys], self.flag[rows][keys]
        )

    def _read_out(
        self,
        lo: int,
        hi: int,
        keys: np.ndarray,
        ids: np.ndarray,
        estimates: np.ndarray,
        flags: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`read` from the occupied buckets' keys, residents,
        vote+ and flags (``None``: none raised): each flagged estimate
        plus its Light-Part count (in place), and each member's row end."""
        if flags is not None:
            flagged = flags.nonzero()[0]
            if flagged.size:
                which = lo + keys[flagged] // self.n_buckets
                estimates[flagged] += query_stacked(
                    self.light, self.light_mixed, which, ids[flagged]
                )
        ends = keys.searchsorted(self._member_ends[: hi - lo])
        return keys, ids, estimates, ends

    def read_and_reset(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`read`, then clear the registers of members ``[lo, hi)``.

        Only the occupied buckets are cleared, by the keys just read:
        an empty bucket's votes and flag are already zero.  Likewise
        only the Light Parts written since their last clear are filled
        (:attr:`light_dirty`).
        """
        result = self.read(lo, hi)
        keys = result[0]
        rows = slice(lo * self.n_buckets, hi * self.n_buckets)
        self.flow_id[rows][keys] = _EMPTY
        self.pos[rows][keys] = _ZERO
        self.neg[rows][keys] = _ZERO
        self.flag[rows][keys] = _UNFLAGGED
        self._clear_light(lo, hi)
        if hi - lo == len(self.sketches):
            self.written = False
        return result

    def _clear_light(self, lo: int, hi: int) -> None:
        """Fill the Light Parts of members ``[lo, hi)`` written since
        their last clear, and unmark them."""
        dirty = self.light_dirty[lo:hi]
        written = dirty.nonzero()[0]
        if written.size:
            if written.size == hi - lo:
                self.light[lo:hi].fill(0)
            else:
                self.light[lo:hi][written] = 0
            dirty.fill(False)
